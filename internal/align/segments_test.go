package align

import (
	"slices"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// A horizontal gap whose two ends lie in different segments reaches its
// far end through the carry between segments alone. The vertical
// sequence is the horizontal one with g residues cut out across the
// boundary of segments 2 and 3 (8 columns each), so the best alignment
// runs down one diagonal, jumps g columns over the boundary in one row
// and carries on down the next diagonal to the bottom row. Segmented
// passes, masked and not, must score the window as the Go row does, and
// the Go row's traceback must take the jump, or the case would not test
// it. (Mutation-checked: zeroing the carries CARRY_SEG computes fails
// it.)
func TestSegmentCarryCrossesBoundary(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("the segmented kernel needs AVX2")
	}
	p := Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	const segs, n = 8, 8 * RowBlock
	boundary := 3 * segs // segment 2's last column, 1-based
	s2 := seq.Random(seq.DNA, n, 5).Codes
	a, b, g := 4, boundary-3, 7 // rows follow columns a+1..b, then b+g+1 on
	s1 := append(slices.Clone(s2[a:b]), s2[b+g:n-4]...)
	s := append(slices.Clone(s1), s2...)
	w := Rect{Y0: 1, Y1: len(s1), X0: len(s1) + 1, X1: len(s1) + n}

	restore := forceTier(t, TierScalar)
	ref := NewScratch()
	want := slices.Clone(ref.ScoreWindow(p, s, w, nil))
	endX, _, _ := BestValidEnd(want, nil)
	aln, err := tracebackWindow(ref, p, matrixWindow(ref, p, s, w, nil), s, w, nil, endX)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	jumps := false
	for i := 1; i < len(aln.Pairs); i++ {
		x0, x1 := aln.Pairs[i-1].X, aln.Pairs[i].X
		jumps = jumps || (x1-x0 > 1 && x0 <= boundary && x1 > boundary)
	}
	if !jumps {
		t.Fatalf("the best alignment does not jump the segment boundary: %v", aln.Pairs)
	}

	tri := triangle.New(len(s)) // masks off the path, on both sides of the boundary: the masked pass rebuilds its carries
	for y := w.Y0; y <= w.Y1; y += 2 {
		tri.Set(y, w.X0-1+boundary)
		tri.Set(y, w.X0-1+boundary+1)
	}
	defer forceTier(t, TierInt16x16)()
	defer setSegWidth(RowBlock)()
	for _, mask := range []*triangle.Triangle{nil, tri} {
		sc := NewScratch()
		got := sc.ScoreWindow(p, s, w, mask)
		restore := forceTier(t, TierScalar)
		want := NewScratch().ScoreWindow(p, s, w, mask)
		restore()
		if !equalI32(got, want) {
			t.Fatalf("masked=%v: segmented bottom row\n got %v\nwant %v", mask != nil, got, want)
		}
	}
}
