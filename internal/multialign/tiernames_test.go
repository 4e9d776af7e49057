package multialign_test

import (
	"maps"
	"testing"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/scoring"
	"repro/internal/stats"
)

// stats.TierNames must mirror the kernel ladder, byte rung included —
// stats can't import the kernel packages (it sits below them in the
// dependency order), so the correspondence is pinned here: every ordinal
// below stats.NumTiers is a tier with its own name, the one past them is
// none.
func TestStatsTierNamesMatchLadder(t *testing.T) {
	if top := align.TierU8x32; int(top)+1 != stats.NumTiers {
		t.Fatalf("stats.NumTiers = %d, ladder has %d tiers", stats.NumTiers, int(top)+1)
	}
	for i := 0; i < stats.NumTiers; i++ {
		if got, want := stats.TierNames[i], align.Tier(i).String(); got != want {
			t.Errorf("TierNames[%d] = %q, want %q", i, got, want)
		}
		if tier, err := align.ParseTier(stats.TierNames[i]); err != nil || int(tier) != i {
			t.Errorf("TierNames[%d] = %q parses to %v, %v", i, stats.TierNames[i], tier, err)
		}
	}
	if past := align.Tier(stats.NumTiers); past.String() != align.TierScalar.String() {
		t.Errorf("ordinal %d past the ladder names a tier: %q", stats.NumTiers, past)
	}

	// A 32-lane byte group reports the byte rung, and the engine's
	// counters name it as the ladder does: its alignments land under
	// "u8x32" in Usage.KernelTiers, a re-run group's under "int16x16" and
	// "rerun".
	prev := align.ActiveTier()
	if align.SetKernelTier("u8x32") != nil {
		return // no byte rung on this CPU
	}
	defer align.SetKernelTier(prev.String()) //nolint:errcheck // prev was active, so it is supported
	p := align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	homo := make([]byte, 160) // the group at 40 passes 255-bias, the one at 3 does not
	sc := multialign.NewScratch()
	var c stats.Counters
	for _, r0 := range []int{3, 40} {
		g, err := sc.ScoreGroupAuto(p, homo, r0, 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.AddTierAlignments(int(g.Tier), 32, g.Rerun)
	}
	want := map[string]int64{"u8x32": 32, "int16x16": 32, "rerun": 32}
	if got := c.Snapshot().KernelTiers(); !maps.Equal(got, want) {
		t.Errorf("KernelTiers %v, want %v", got, want)
	}
}
