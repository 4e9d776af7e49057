package multialign_test

import (
	"testing"

	"repro/internal/align"
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
}
