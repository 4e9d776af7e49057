package repro_test

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/topalign"
)

// crossover is topalign's groupCrossover as seen from outside: the
// battery straddles it, and says so when the constant moves.
const crossover = 250

// TestLanesDifferential is what lets Lanes leave serve.CacheKey: in
// strict mode the report — tops and families — is the same for every
// lane count on every backend, on both sides of the length crossover,
// for protein and DNA scoring models. It runs under whatever kernel tier
// is active; CI repeats it under each REPRO_KERNEL_TIER.
func TestLanesDifferential(t *testing.T) {
	inputs := []struct {
		name, matrix string
		gen          func(n int) string
	}{
		{"blosum62-titin", "BLOSUM62", func(n int) string { return seq.SyntheticTitin(n, 1).String() }},
		{"pam250-titin", "PAM250", func(n int) string { return seq.SyntheticTitin(n, 2).String() }},
		{"dna-unit-tandem", "dna-unit", func(n int) string { return dnaTandem(n, 1) }},
		{"paper-dna-tandem", "paper-dna", func(n int) string { return dnaTandem(n, 3) }},
	}
	backends := []struct {
		name string
		opt  repro.Options
	}{
		{"sequential", repro.Options{}},
		{"workers2", repro.Options{Workers: 2}},
		{"workers4", repro.Options{Workers: 4}},
		{"cluster2x2", repro.Options{Slaves: 2, ThreadsPerSlave: 2}},
	}
	lengths := []int{120, crossover - 1, crossover, 700}
	if testing.Short() {
		lengths = lengths[:3]
	}

	protein := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	if got := topalign.ResolveLanes(protein, crossover-1, 0); got != 1 {
		t.Fatalf("lanes 0 resolves to %d at n=%d: the crossover moved, move this test's lengths with it", got, crossover-1)
	}
	if got := topalign.ResolveLanes(protein, crossover, 0); got == 1 && multialign.ActiveTier() > multialign.TierScalar {
		t.Fatalf("lanes 0 resolves to 1 at n=%d under tier %s: the crossover moved, move this test's lengths with it",
			crossover, multialign.ActiveTier())
	}

	for _, in := range inputs {
		for _, n := range lengths {
			s := in.gen(n)
			want, err := repro.Analyze("x", s, repro.Options{Matrix: in.matrix, NumTops: 8, Lanes: 1})
			if err != nil {
				t.Fatalf("%s n=%d reference: %v", in.name, n, err)
			}
			if len(want.Tops) == 0 {
				t.Fatalf("%s n=%d: reference found no top alignment, the row proves nothing", in.name, n)
			}
			for _, b := range backends {
				for _, lanes := range []int{0, 1, 4, 8, 16, 32} {
					if n > crossover && (lanes == 1 || lanes == 4) {
						// one split-by-split run of this length costs seconds
						// on the Go rows under the race detector; the shorter
						// rows cover those lane counts on every backend
						continue
					}
					opt := b.opt
					opt.Matrix, opt.NumTops, opt.Lanes = in.matrix, 8, lanes
					got, err := repro.Analyze("x", s, opt)
					if err != nil {
						t.Fatalf("%s n=%d %s lanes=%d: %v", in.name, n, b.name, lanes, err)
					}
					assertSameReport(t, fmt.Sprintf("%s n=%d %s lanes=%d", in.name, n, b.name, lanes), got, want)
				}
			}
		}
	}
}

func assertSameReport(t *testing.T, what string, got, want *repro.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Tops, want.Tops) {
		t.Errorf("%s: tops differ from lanes 1 sequential", what)
	}
	if !reflect.DeepEqual(got.Families, want.Families) {
		t.Errorf("%s: families differ from lanes 1 sequential", what)
	}
}

// forceTier sets the active kernel tier for one test and puts the
// previous one back (the detected tier, or what REPRO_KERNEL_TIER
// forced for the whole run), read from align's whole ladder: multialign
// reads the byte rung as int16x16. It skips the test on a CPU without
// the tier.
func forceTier(t *testing.T, tier multialign.Tier) {
	t.Helper()
	prev := align.ActiveTier()
	if err := align.SetKernelTier(tier.String()); err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() {
		if err := align.SetKernelTier(prev.String()); err != nil {
			t.Fatal(err)
		}
	})
}

// Lanes 0 follows the active tier: on a host whose widest tier is
// scalar it resolves to one matrix per task, never to a 16-lane group
// of scalar alignments, under int32x8 to 8, under int16x16 to 16 and
// under u8x32 to 32. The report stays the lanes-1 report and names the
// lanes and the tier that ran.
func TestLanesZeroFollowsTheActiveTier(t *testing.T) {
	s := seq.SyntheticTitin(300, 5).String()
	want, err := repro.Analyze("x", s, repro.Options{NumTops: 8, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, lanes := range []int{1, 8, 16, 32} { // indexed by tier: scalar, int32x8, int16x16, u8x32
		tier := multialign.Tier(i)
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			got, err := repro.Analyze("x", s, repro.Options{NumTops: 8})
			if err != nil {
				t.Fatal(err)
			}
			assertSameReport(t, "lanes=0", got, want)
			if got.Stats.Lanes != lanes || got.Stats.KernelTier != tier.String() {
				t.Errorf("lanes 0 ran %d lanes on %s, want %d on %s", got.Stats.Lanes, got.Stats.KernelTier, lanes, tier)
			}
			if n := got.Usage.KernelTiers[tier.String()]; n != got.Stats.Alignments {
				t.Errorf("tier %s served %d of %d alignments (%v)", tier, n, got.Stats.Alignments, got.Usage.KernelTiers)
			}
		})
	}
}

// Stats.KernelTier is derived from the same lane resolution the engine
// applies, so it names the tier that did the work — the largest count in
// Usage.KernelTiers — whether the lane count was given or chosen.
func TestKernelTierNamesTheTierThatRan(t *testing.T) {
	s := seq.SyntheticTitin(300, 6).String()
	for _, lanes := range []int{0, 1, 8, 16, 32} {
		rep, err := repro.Analyze("x", s, repro.Options{NumTops: 8, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		busiest := ""
		for tier, n := range rep.Usage.KernelTiers {
			if tier != "rerun" && n > rep.Usage.KernelTiers[busiest] {
				busiest = tier
			}
		}
		if rep.Stats.KernelTier != busiest {
			t.Errorf("lanes %d: KernelTier %q, but %v did the work", lanes, rep.Stats.KernelTier, rep.Usage.KernelTiers)
		}
		if lanes != 0 && rep.Stats.Lanes != lanes {
			t.Errorf("lanes %d reported as %d", lanes, rep.Stats.Lanes)
		}
	}
	// Window presets align one matrix per task on the row kernel, whatever
	// the lane count, and are named by the row-ladder tier their windows
	// ran on: the byte rung runs their passes in front of int16x16, and
	// counts as it.
	rep, err := repro.Analyze("x", s, repro.Options{NumTops: 8, Preset: "balanced"})
	if err != nil {
		t.Fatal(err)
	}
	ran := maps.Clone(rep.Usage.KernelTiers)
	ran[align.TierInt16x16.String()] += ran[align.TierU8x32.String()]
	delete(ran, align.TierU8x32.String())
	busiest := ""
	for tier, n := range ran {
		if n > ran[busiest] {
			busiest = tier
		}
	}
	if rep.Stats.KernelTier != busiest || rep.Stats.Lanes != 1 {
		t.Errorf("balanced preset reports %d lanes on %s, but %v did the work", rep.Stats.Lanes, rep.Stats.KernelTier, rep.Usage.KernelTiers)
	}
	if want := align.RowTier(align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}, align.RowBlock, align.RowBlock); rep.Stats.KernelTier != want.String() {
		t.Errorf("balanced preset ran on %s under active tier %s, want %s", rep.Stats.KernelTier, multialign.ActiveTier(), want)
	}
}

// A poly-W protein under PAM250 (W:W = 17) passes 32000 in the middle
// splits at this length: those int16 groups saturate and re-run in
// int32 under a default lane count. The report must equal the one the
// exact int32 kernel produces on its own.
func TestLanesZeroSurvivesInt16Saturation(t *testing.T) {
	if testing.Short() {
		t.Skip("aligns 9e9 cells twice")
	}
	if multialign.ActiveTier() != multialign.TierInt16x16 {
		t.Skip("no int16x16 tier active: nothing saturates")
	}
	s := strings.Repeat("W", 3800)
	want, err := repro.Analyze("w", s, repro.Options{Matrix: "PAM250", NumTops: 2, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := repro.Analyze("w", s, repro.Options{Matrix: "PAM250", NumTops: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "poly-W lanes=0", got, want)
	tiers := got.Usage.KernelTiers
	if got.Stats.Lanes != 16 || tiers["rerun"] == 0 || tiers["int32x8"] != tiers["rerun"] || tiers["int16x16"] == 0 {
		t.Errorf("lanes %d, tier mix %v: want 16 lanes with int16 groups and saturated ones re-run in int32", got.Stats.Lanes, tiers)
	}
	if want.Tops[0].Score <= 32000 {
		t.Errorf("best score %d does not pass the int16 limit: the row proves nothing", want.Tops[0].Score)
	}
}
