package multialign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
)

func TestTierStringParseRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierScalar, TierInt32x8, TierInt16x16} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("round trip %s: got %v, %v", tier, got, err)
		}
	}
	if _, err := ParseTier("int8x32"); err == nil {
		t.Error("unknown tier name parsed without error")
	}
}

func TestSetKernelTierOverride(t *testing.T) {
	defer SetKernelTier("auto")
	if err := SetKernelTier("bogus"); err == nil {
		t.Fatal("bogus tier name accepted")
	}
	if err := SetKernelTier("scalar"); err != nil {
		t.Fatal(err)
	}
	if ActiveTier() != TierScalar {
		t.Fatalf("after forcing scalar: active tier %s", ActiveTier())
	}
	if err := SetKernelTier("auto"); err != nil {
		t.Fatal(err)
	}
	if ActiveTier() != DetectedTier() {
		t.Fatalf("after clearing override: active %s, detected %s", ActiveTier(), DetectedTier())
	}
	if DetectedTier() < TierInt16x16 {
		if err := SetKernelTier("int16x16"); err == nil {
			t.Fatal("unsupported tier accepted on this CPU")
		}
	} else if err := SetKernelTier("int16x16"); err != nil {
		t.Fatal(err)
	}
}

// TierFor must narrow the active tier by group shape and scoring model:
// the int16 tier serves only full 16-lane groups with in-range scores,
// the int32 vector tier needs at least 8 lanes.
func TestTierForNarrowing(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("narrowing ladder needs the full tier set")
	}
	defer SetKernelTier("auto")
	if err := SetKernelTier("int16x16"); err != nil {
		t.Fatal(err)
	}
	okP := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	wide := align.Params{Exch: scoring.Unit("w", seq.DNA, 300, -1), Gap: scoring.PaperGap}
	bigGap := align.Params{Exch: scoring.PaperDNA, Gap: scoring.Gap{Open: maxGapInt16, Ext: 1}}
	cases := []struct {
		name  string
		p     align.Params
		lanes int
		want  Tier
	}{
		{"full-16", okP, 16, TierInt16x16},
		{"8-lanes", okP, 8, TierInt32x8},
		{"4-lanes", okP, 4, TierScalar},
		{"wide-scores", wide, 16, TierInt32x8},
		{"big-gap", bigGap, 16, TierInt32x8},
	}
	for _, c := range cases {
		if got := TierFor(c.p, 500, c.lanes); got != c.want {
			t.Errorf("%s: tier %s, want %s", c.name, got, c.want)
		}
	}
	// The byte rung serves 32-lane groups only. The contract callers of
	// ActiveTier and DetectedTier rely on: an active u8x32 reads as
	// int16x16 there, and groups of 8 and 16 lanes run where they ran
	// before.
	byteCases := []struct {
		name string
		p    align.Params
		want Tier
	}{
		{"full-32", okP, TierU8x32},
		// fits int16 but not a byte: 200 plus the bias of 100 passes 255
		{"int16-only", align.Params{Exch: scoring.Unit("b", seq.DNA, 200, -100), Gap: scoring.PaperGap}, TierInt16x16},
		{"wide-scores-32", wide, TierInt32x8},
		{"big-gap-32", bigGap, TierInt32x8},
	}
	for _, c := range byteCases {
		if got := TierFor(c.p, 500, 32); got != min(c.want, TierInt16x16) {
			t.Errorf("%s under int16x16: tier %s, want %s", c.name, got, min(c.want, TierInt16x16))
		}
	}
	if align.DetectedTier() >= align.TierU8x32 {
		if err := SetKernelTier("u8x32"); err != nil {
			t.Fatal(err)
		}
		if ActiveTier() != TierInt16x16 || DetectedTier() != TierInt16x16 {
			t.Errorf("under u8x32: active %s, detected %s, want int16x16 for both", ActiveTier(), DetectedTier())
		}
		for _, c := range cases {
			if got := TierFor(c.p, 500, c.lanes); got != c.want {
				t.Errorf("%s under u8x32: tier %s, want %s", c.name, got, c.want)
			}
		}
		for _, c := range byteCases {
			if got := TierFor(c.p, 500, 32); got != c.want {
				t.Errorf("%s under u8x32: tier %s, want %s", c.name, got, c.want)
			}
		}
	}
}

// Int16Proven must be exactly the hi*dim < satLimit16 predicate over the
// computed region, covering dead lanes that evolve past their last
// captured row.
func TestInt16ProvenBound(t *testing.T) {
	hi := int16(11)
	p := align.Params{Exch: scoring.Unit("p", seq.DNA, hi, -1), Gap: scoring.PaperGap}
	for _, tc := range []struct {
		m, r0 int
		want  bool
	}{
		{5803, 2894, true},  // dim=2909, 11*2909 = 31999
		{5805, 2895, false}, // dim=2910, 11*2910 = 32010
		{100, 50, true},     // tiny
	} {
		if got := Int16Proven(p, tc.m, tc.r0, 16); got != tc.want {
			t.Errorf("m=%d r0=%d: proven=%v, want %v", tc.m, tc.r0, got, tc.want)
		}
	}
	neg := align.Params{Exch: scoring.Unit("n", seq.DNA, -1, -2), Gap: scoring.PaperGap}
	if !Int16Proven(neg, 1<<20, 1<<19, 16) {
		t.Error("non-positive max score must always be proven")
	}
}
