package seedindex_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/seedindex"
	"repro/internal/seq"
)

// moderate is the divergence profile of the recall battery. The recall
// floors below are calibrated for it; at DefaultDivergence (45%
// substitution) exact seeds between copies become rare and only the
// sensitive preset keeps full recall — that trade is documented in
// DESIGN.md section 13.
var moderate = seq.MutationProfile{SubstRate: 0.2, IndelRate: 0.02, IndelExt: 0.5}

// battery returns the differential inputs: >= 6 deterministic seeds,
// every sequence at most 2000 residues, mixing tandem arrays with
// titin-like domain repeats on both alphabets.
func battery() []struct {
	id, residues, matrix string
} {
	var cases []struct{ id, residues, matrix string }
	add := func(id, residues, matrix string) {
		if len(residues) > 2000 {
			residues = residues[:2000]
		}
		cases = append(cases, struct{ id, residues, matrix string }{id, residues, matrix})
	}
	for s := uint64(1); s <= 3; s++ {
		q := seq.Tandem(seq.TandemSpec{UnitLen: 40 + 20*int(s), Copies: 6,
			FlankLen: 60, Profile: moderate, Seed: s})
		add(q.ID, q.String(), "BLOSUM62")
	}
	add("titin-700", seq.SyntheticTitin(700, 3).String(), "BLOSUM62")
	add("titin-900-pam", seq.SyntheticTitin(900, 4).String(), "PAM250")
	q := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 90, Copies: 8,
		FlankLen: 80, Profile: moderate, Seed: 9})
	add(q.ID, q.String(), "paper-dna")
	q = seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 50, Copies: 12,
		FlankLen: 40, Profile: seq.MutationProfile{SubstRate: 0.1}, Seed: 11})
	add(q.ID+"-clean", q.String(), "dna-unit")
	return cases
}

// TestSensitiveBitIdentical asserts that the sensitive preset returns
// top-K alignments bit-identical to the full engine — scores, splits and
// every matched pair — on all three backends in strict mode. Sensitive
// runs the exact engine and only adds prefilter telemetry, so any
// divergence here is a wiring bug.
func TestSensitiveBitIdentical(t *testing.T) {
	backends := map[string]repro.Options{
		"sequential": {},
		"parallel":   {Workers: 4},
		"cluster":    {Slaves: 2, ThreadsPerSlave: 2},
	}
	for _, c := range battery() {
		base, err := repro.Analyze(c.id, c.residues, repro.Options{Matrix: c.matrix, NumTops: 8})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		for name, opt := range backends {
			opt.Matrix, opt.NumTops, opt.Preset = c.matrix, 8, seedindex.PresetSensitive
			got, err := repro.Analyze(c.id, c.residues, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.id, name, err)
			}
			if !reflect.DeepEqual(got.Tops, base.Tops) {
				t.Errorf("%s/%s: sensitive tops differ from full engine", c.id, name)
			}
			if !reflect.DeepEqual(got.Families, base.Families) {
				t.Errorf("%s/%s: sensitive families differ from full engine", c.id, name)
			}
			if got.Prefilter == nil || got.Prefilter.Preset != seedindex.PresetSensitive {
				t.Errorf("%s/%s: sensitive report missing prefilter telemetry", c.id, name)
			}
		}
	}
}

// Recall floors of the filtering presets on moderate-divergence tandem
// arrays (see `moderate` above), measured as score recall: the summed
// top-alignment score under the preset divided by the full engine's,
// averaged over the battery. Measured means sit near 0.89 (fast) and
// 0.92 (balanced); the floors leave margin for tuning drift without
// letting a broken filter pass.
const (
	fastRecallFloor     = 0.78
	balancedRecallFloor = 0.83
)

// TestFilterPresetRecall asserts the documented recall floors for the
// fast and balanced presets on seeded synthetic tandem arrays, and that
// balanced never recalls less than fast on aggregate (it searches a
// superset of the pair space).
func TestFilterPresetRecall(t *testing.T) {
	sum := func(rep *repro.Report) float64 {
		var s float64
		for _, top := range rep.Tops {
			s += float64(top.Score)
		}
		return s
	}
	var exactSum, fastSum, balancedSum float64
	for s := uint64(1); s <= 6; s++ {
		q := seq.Tandem(seq.TandemSpec{UnitLen: 50 + 10*int(s), Copies: 7,
			FlankLen: 50, Profile: moderate, Seed: 100 + s})
		exact, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Tops) == 0 {
			t.Fatalf("seed %d: full engine found no repeats in a tandem array", s)
		}
		exactSum += sum(exact)
		for preset, acc := range map[string]*float64{
			seedindex.PresetFast: &fastSum, seedindex.PresetBalanced: &balancedSum,
		} {
			rep, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: 10, Preset: preset})
			if err != nil {
				t.Fatalf("seed %d/%s: %v", s, preset, err)
			}
			*acc += sum(rep)
			for _, top := range rep.Tops {
				if top.Score > exact.Tops[0].Score {
					t.Fatalf("seed %d/%s: prefilter top score %d exceeds exact optimum %d",
						s, preset, top.Score, exact.Tops[0].Score)
				}
			}
		}
	}
	fastRecall := fastSum / exactSum
	balancedRecall := balancedSum / exactSum
	t.Logf("score recall over battery: fast=%.3f balanced=%.3f", fastRecall, balancedRecall)
	if fastRecall < fastRecallFloor {
		t.Errorf("fast recall %.3f below documented floor %.2f", fastRecall, fastRecallFloor)
	}
	if balancedRecall < balancedRecallFloor {
		t.Errorf("balanced recall %.3f below documented floor %.2f", balancedRecall, balancedRecallFloor)
	}
	if balancedRecall+1e-9 < fastRecall-0.05 {
		t.Errorf("balanced recall %.3f clearly below fast %.3f", balancedRecall, fastRecall)
	}
}

// TestFilterPresetsBackendIndependent asserts that fast and balanced
// return the same result regardless of the Workers/Slaves options: the
// windowed driver is one loop whatever the backend, so cache entries
// stay shareable across backends.
func TestFilterPresetsBackendIndependent(t *testing.T) {
	q := seq.Tandem(seq.TandemSpec{UnitLen: 60, Copies: 6, FlankLen: 40,
		Profile: moderate, Seed: 42})
	for _, preset := range []string{seedindex.PresetFast, seedindex.PresetBalanced} {
		base, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: 6, Preset: preset})
		if err != nil {
			t.Fatal(err)
		}
		// Window alignments are attributed to a kernel tier like split
		// alignments: the report's tier mix accounts for every one.
		var tiered int64
		for tier, n := range base.Usage.KernelTiers {
			if tier != "rerun" {
				tiered += n
			}
		}
		if base.Stats.Alignments == 0 || tiered != base.Stats.Alignments {
			t.Errorf("%s: kernel-tier mix %v sums to %d, want Stats.Alignments = %d",
				preset, base.Usage.KernelTiers, tiered, base.Stats.Alignments)
		}
		for name, opt := range map[string]repro.Options{
			"parallel": {NumTops: 6, Preset: preset, Workers: 4},
			"cluster":  {NumTops: 6, Preset: preset, Slaves: 2, ThreadsPerSlave: 2},
		} {
			got, err := repro.Analyze(q.ID, q.String(), opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", preset, name, err)
			}
			if !reflect.DeepEqual(got.Tops, base.Tops) {
				t.Errorf("%s/%s: tops differ from the default windowed run", preset, name)
			}
		}
	}
}
