package multialign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// A scoring model whose exchange values exceed the int16 lane bias must
// silently narrow to the exact int32 tier — never the saturating kernel.
func TestAuto16WideScoresNarrowToInt32(t *testing.T) {
	wide := scoring.Unit("wide", seq.DNA, 300, -1)
	p := align.Params{Exch: wide, Gap: scoring.PaperGap}
	s := make([]byte, 200)
	r0 := 90
	g, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tier == TierInt16x16 {
		t.Fatal("int16 tier selected for scores beyond the lane bias")
	}
	for i := 0; i < 16; i++ {
		r := r0 + i
		want := align.Score(p, s[:r], s[r:])
		if !equalRows(g.Bottoms[i], want) {
			t.Fatalf("lane %d wrong on wide-score input", i)
		}
	}
}

// satBoundaryCase builds a homopolymer group whose largest computed cell
// value is exactly hi*dim: with a match-only diagonal, cell (y, x) of
// every lane's matrix is hi*min(y, x), and choosing r0 = dim-15 and
// m = r0+dim makes the kernel's computed region (rows to r0+15, n = dim
// columns) peak at exactly hi*dim in lane 0's top row corner.
func satBoundaryCase(hi int16, dim int) (p align.Params, s []byte, r0 int) {
	unit := scoring.Unit("sat", seq.DNA, hi, -1)
	p = align.Params{Exch: unit, Gap: scoring.PaperGap}
	r0 = dim - 15
	s = make([]byte, r0+dim)
	return p, s, r0
}

// Property: driving the peak cell value to either side of the int16
// saturation threshold must flip the sticky flag exactly at the
// boundary — hi*dim < satLimit16 runs clean in int16, hi*dim at or past
// it fires the flag and the transparent int32 re-run — and the bottom
// rows must be bit-identical to the scalar kernel on both sides.
func TestInt16SaturationBoundaryProperty(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2")
	}
	defer SetKernelTier("auto")
	sc := NewScratch()
	for _, hi := range []int16{11, 37, 101, 250} {
		below := (satLimit16 - 1) / int(hi) // largest dim with hi*dim < satLimit16
		at := (satLimit16 + int(hi) - 1) / int(hi)
		for _, tc := range []struct {
			dim       int
			wantRerun bool
		}{
			{below, false}, // peak = hi*below <= satLimit16-1: clean
			{at, true},     // peak >= satLimit16: flag + re-run
			{at + 1, true},
		} {
			p, s, r0 := satBoundaryCase(hi, tc.dim)
			m := len(s)
			if proven := Int16Proven(p, m, r0, 16); proven == tc.wantRerun {
				t.Fatalf("hi=%d dim=%d: Int16Proven=%v, want %v", hi, tc.dim, proven, !tc.wantRerun)
			}
			if err := SetKernelTier("auto"); err != nil {
				t.Fatal(err)
			}
			g, err := sc.ScoreGroupAuto(p, s, r0, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Rerun != tc.wantRerun {
				t.Fatalf("hi=%d dim=%d peak=%d: Rerun=%v, want %v",
					hi, tc.dim, int(hi)*tc.dim, g.Rerun, tc.wantRerun)
			}
			wantTier := TierInt16x16
			if tc.wantRerun {
				wantTier = TierInt32x8
			}
			if g.Tier != wantTier {
				t.Fatalf("hi=%d dim=%d: tier %s, want %s", hi, tc.dim, g.Tier, wantTier)
			}
			// All lanes bit-identical to the forced exact-int32 kernel
			// (itself pinned to scalar by the 8-lane differential suite),
			// and lane 0 additionally checked against the scalar kernel.
			if err := SetKernelTier("int32x8"); err != nil {
				t.Fatal(err)
			}
			g2, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if !equalRows(g.Bottoms[i], g2.Bottoms[i]) {
					t.Fatalf("hi=%d dim=%d lane %d: int16 path differs from int32", hi, tc.dim, i)
				}
			}
			if want := align.Score(p, s[:r0], s[r0:]); !equalRows(g.Bottoms[0], want) {
				t.Fatalf("hi=%d dim=%d: lane 0 differs from scalar kernel", hi, tc.dim)
			}
			if hi != 250 {
				continue // the Equation-1 oracle below is cubic: smallest groups only
			}
			// The same group with lane 0's main diagonal overridden: every
			// row is computed unmasked and zeroed afterwards, so the peak
			// cells the mask removes still pass through the int16 lanes.
			// Whether or not that trips the flag, the rows are the oracle's.
			diag := triangle.New(m)
			for y := 1; y <= r0 && r0+y <= m; y++ {
				diag.Set(y, r0+y)
			}
			if err := SetKernelTier("auto"); err != nil {
				t.Fatal(err)
			}
			g, err = sc.ScoreGroupAuto(p, s, r0, 16, diag)
			if err != nil {
				t.Fatal(err)
			}
			if g.Rerun != (g.Tier == TierInt32x8) {
				t.Fatalf("hi=%d dim=%d diagonal masked: Rerun=%v on tier %s", hi, tc.dim, g.Rerun, g.Tier)
			}
			for i, got := range g.Bottoms {
				r := r0 + i
				if want := align.NaiveMatrix(p, s[:r], s[r:], diag, r)[r][1:]; !equalRows(got, want) {
					t.Fatalf("hi=%d dim=%d diagonal masked (Rerun=%v) lane %d: rows differ from NaiveMatrix", hi, tc.dim, g.Rerun, i)
				}
			}
		}
	}
}

// An unprovable group (score ceiling past the threshold) whose actual
// scores stay below it must run the flag-tracking int16 kernel without
// firing: a full overridden column halves every diagonal run, so the
// peak value stays near satLimit16/2 while Int16Proven still says no.
func TestInt16UnprovenCleanRun(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("int16 kernel needs AVX2")
	}
	hi, dim := int16(101), (satLimit16+100)/101 // hi*dim just past the limit
	p, s, r0 := satBoundaryCase(hi, dim)
	m := len(s)
	if Int16Proven(p, m, r0, 16) {
		t.Fatal("case not constructed correctly: group is provably clean")
	}
	cut := r0 + dim/2 // override global column cut in every row
	tri := triangle.New(m)
	for y := 1; y < cut; y++ {
		tri.Set(y, cut)
	}
	g, err := NewScratch().ScoreGroupAuto(p, s, r0, 16, tri)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rerun || g.Tier != TierInt16x16 {
		t.Fatalf("masked clean run: Rerun=%v Tier=%s, want int16 with no re-run", g.Rerun, g.Tier)
	}
	for i := 0; i < 16; i++ {
		r := r0 + i
		if r > m-1 {
			continue
		}
		want := align.ScoreMasked(p, s[:r], s[r:], tri, r)
		if !equalRows(g.Bottoms[i], want) {
			t.Fatalf("lane %d differs from scalar masked kernel", i)
		}
	}
}
