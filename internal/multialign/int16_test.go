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

// Saturating inputs on the byte rung: a PAM250 titin group and a
// homopolymer group whose passes reach the byte range's top must re-run
// on the int16 rung — both 16-lane halves — and report it, and every
// bottom row must equal the oracle's. A group below the level on the
// same input stays on the byte rung. The homopolymer's oracle is
// align.NaiveMatrix; Equation 1 costs a row and a column per cell, too
// much at 4 000 residues, so the titin rows are compared with the Go row
// kernel (the scalar rung, itself checked against NaiveMatrix).
func TestByteGroupSaturation(t *testing.T) {
	prev := align.ActiveTier()
	if err := align.SetKernelTier("u8x32"); err != nil {
		t.Skip(err)
	}
	defer align.SetKernelTier(prev.String()) //nolint:errcheck // prev was active, so it is supported
	pam := align.Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}
	dna := align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	titin := seq.SyntheticTitin(4000, 1).Codes
	homo := make([]byte, 160) // +5 a residue: 255-bias = 251 is passed from row 51
	naive := func(p align.Params, s []byte, r int, tri *triangle.Triangle) []int32 {
		return align.NaiveMatrix(p, s[:r], s[r:], tri, r)[r][1:]
	}
	goRows := func(p align.Params, s []byte, r int, tri *triangle.Triangle) []int32 {
		if err := align.SetKernelTier("scalar"); err != nil {
			t.Fatal(err)
		}
		defer align.SetKernelTier("u8x32") //nolint:errcheck // set above
		return align.ScoreMasked(p, s[:r], s[r:], tri, r)
	}
	masked := func(m, r0 int) *triangle.Triangle {
		tri := triangle.New(m)
		for y := 1; y < r0; y += 3 {
			tri.Set(y, r0+y)
		}
		return tri
	}
	sc := NewScratch()
	for _, tc := range []struct {
		name   string
		p      align.Params
		s      []byte
		r0     int
		tri    *triangle.Triangle
		rerun  bool
		oracle func(align.Params, []byte, int, *triangle.Triangle) []int32
	}{
		{"pam250-titin4000", pam, titin, 200, nil, true, goRows},
		{"pam250-titin4000-masked", pam, titin, 200, masked(len(titin), 200), true, goRows},
		{"pam250-titin4000-clean", pam, titin, 150, nil, false, goRows},
		{"homopolymer", dna, homo, 40, nil, true, naive},
		{"homopolymer-masked", dna, homo, 40, masked(len(homo), 40), true, naive},
		{"homopolymer-clean", dna, homo, 3, nil, false, naive},
	} {
		g, err := sc.ScoreGroupAuto(tc.p, tc.s, tc.r0, 32, tc.tri)
		if err != nil {
			t.Fatal(err)
		}
		wantTier := TierU8x32
		if tc.rerun {
			wantTier = TierInt16x16
		}
		if g.Rerun != tc.rerun || g.Tier != wantTier || (g.Wasted > 0) != tc.rerun {
			t.Errorf("%s: tier %s rerun %v wasted %d, want %s rerun %v", tc.name, g.Tier, g.Rerun, g.Wasted, wantTier, tc.rerun)
		}
		for k, got := range g.Bottoms {
			r := tc.r0 + k
			if want := tc.oracle(tc.p, tc.s, r, tc.tri); !equalRows(got, want) {
				t.Fatalf("%s lane %d (split %d): bottom row differs from the oracle's", tc.name, k, r)
			}
		}
	}
}
