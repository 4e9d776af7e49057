package align

import (
	"math"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

var paperParams = Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}

// TestFigure2 reproduces the alignment matrix of Figure 2 of the paper:
// CTTACAGA (horizontal) aligned with ATTGCGA (vertical) under match +2,
// mismatch -1, gap open 2, gap extension 1.
//
// The last row printed in the paper's text is missing its leading zero
// (a typesetting/extraction artifact); the values below follow the
// recurrence of Equation 1 / Figure 3, hand-verified cell by cell, and
// agree with the paper's traceback (best score 6, alignment
// TTACAGA / TT-GC-GA ending on the final A-A match).
func TestFigure2(t *testing.T) {
	s1 := seq.DNA.MustEncode("ATTGCGA")  // vertical
	s2 := seq.DNA.MustEncode("CTTACAGA") // horizontal
	want := [][]int32{
		{0, 0, 0, 2, 0, 2, 0, 2},
		{0, 2, 2, 0, 1, 0, 1, 0},
		{0, 2, 4, 1, 0, 0, 0, 0},
		{0, 0, 1, 3, 0, 0, 2, 0},
		{2, 0, 0, 0, 5, 0, 0, 1},
		{0, 1, 0, 0, 0, 4, 4, 0},
		{0, 0, 0, 2, 0, 4, 3, 6},
	}
	m := Matrix(paperParams, s1, s2, nil, 0)
	for y := 1; y <= len(s1); y++ {
		for x := 1; x <= len(s2); x++ {
			if m[y][x] != want[y-1][x-1] {
				t.Errorf("M[%d][%d] = %d, want %d", y, x, m[y][x], want[y-1][x-1])
			}
		}
	}
	// highest score is 6, and it is in the bottom row (col 8)
	bottom := Score(paperParams, s1, s2)
	if got := MaxRowScore(bottom); got != 6 {
		t.Errorf("best bottom-row score = %d, want 6", got)
	}
	if bottom[7] != 6 {
		t.Errorf("bottom[8] = %d, want 6", bottom[7])
	}
}

func TestFigure2Traceback(t *testing.T) {
	s1 := seq.DNA.MustEncode("ATTGCGA")
	s2 := seq.DNA.MustEncode("CTTACAGA")
	m := Matrix(paperParams, s1, s2, nil, 0)
	a, err := Traceback(paperParams, m, s1, s2, nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 6 {
		t.Errorf("score = %d, want 6", a.Score)
	}
	// TTACAGA / TT-GC-GA: matches T-T T-T A-G C-C G-G A-A
	want := []Pair{{2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 7}, {7, 8}}
	if len(a.Pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", a.Pairs, want)
	}
	for i, p := range want {
		if a.Pairs[i] != p {
			t.Fatalf("pairs = %v, want %v", a.Pairs, want)
		}
	}
	if a.Start() != (Pair{2, 2}) || a.End() != (Pair{7, 8}) {
		t.Errorf("start/end = %v/%v", a.Start(), a.End())
	}
}

func TestScoreEmptyOperands(t *testing.T) {
	s := seq.DNA.MustEncode("ACGT")
	wide := seq.Random(seq.DNA, segWidth, 1).Codes // a row in segments on the int16 rung
	for _, s2 := range [][]byte{s, wide} {
		if got := Score(paperParams, nil, s2); len(got) != len(s2) || MaxRowScore(got) != 0 {
			t.Errorf("empty s1 against %d columns: %v", len(s2), got)
		}
	}
	if got := Score(paperParams, s, nil); len(got) != 0 {
		t.Errorf("empty s2: %v", got)
	}
}

// kernels under test, all of which must agree with the naive Equation-1
// reference on arbitrary inputs.
var kernels = []struct {
	name string
	f    func(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32
}{
	{"gotoh", func(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
		return ScoreMasked(p, s1, s2, tri, r)
	}},
	{"striped-8", func(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
		return ScoreStriped(p, s1, s2, tri, r, 8)
	}},
	{"striped-64", func(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
		return ScoreStriped(p, s1, s2, tri, r, 64)
	}},
	{"matrix-bottom", func(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
		m := Matrix(p, s1, s2, tri, r)
		return m[len(s1)][1:]
	}},
}

func TestKernelsAgreeWithNaive(t *testing.T) {
	protein := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	for seed := uint64(0); seed < 6; seed++ {
		full := seq.SyntheticTitin(150, seed)
		m := full.Len()
		for _, r := range []int{1, 40, 75, 120, m - 1} {
			s1 := full.Codes[:r]
			s2 := full.Codes[r:]
			wantRow := ScoreNaive(protein, s1, s2, nil, 0)
			for _, k := range kernels {
				got := k.f(protein, s1, s2, nil, 0)
				if !equalRows(got, wantRow) {
					t.Fatalf("seed %d split %d: kernel %s disagrees with naive\n got %v\nwant %v",
						seed, r, k.name, got, wantRow)
				}
			}
		}
	}
}

func TestKernelsAgreeWithNaiveMasked(t *testing.T) {
	protein := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(120, 3)
	m := full.Len()
	tri := triangle.New(m)
	// mark a scattering of pairs, including a run inside one row
	for _, p := range [][2]int{{10, 80}, {10, 81}, {10, 82}, {33, 40}, {50, 119}, {1, 2}, {60, 61}} {
		tri.Set(p[0], p[1])
	}
	for _, r := range []int{5, 30, 60, 90, 110} {
		s1 := full.Codes[:r]
		s2 := full.Codes[r:]
		wantRow := ScoreNaive(protein, s1, s2, tri, r)
		for _, k := range kernels {
			got := k.f(protein, s1, s2, tri, r)
			if !equalRows(got, wantRow) {
				t.Fatalf("split %d: kernel %s disagrees with naive under mask", r, k.name)
			}
		}
	}
}

func TestMaskForcesZero(t *testing.T) {
	// Mask the only match: the matrix must lose its signal entirely.
	s := seq.DNA.MustEncode("AA") // split r=1: align A vs A
	tri := triangle.New(2)
	tri.Set(1, 2)
	row := ScoreMasked(paperParams, s[:1], s[1:], tri, 1)
	if row[0] != 0 {
		t.Errorf("masked cell = %d, want 0", row[0])
	}
	unmasked := Score(paperParams, s[:1], s[1:])
	if unmasked[0] != 2 {
		t.Errorf("unmasked cell = %d, want 2", unmasked[0])
	}
}

// Override monotonicity: growing the triangle can only lower (or keep)
// bottom-row values, never raise them. This is the property that makes
// stale scores valid upper bounds in the task queue.
func TestOverrideMonotonicity(t *testing.T) {
	protein := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(140, 9)
	m := full.Len()
	tri := triangle.New(m)
	r := 70
	s1, s2 := full.Codes[:r], full.Codes[r:]
	prevRow := ScoreMasked(protein, s1, s2, tri, r)
	marks := [][2]int{{35, 100}, {36, 101}, {37, 102}, {38, 103}, {10, 75}, {60, 130}}
	for _, p := range marks {
		tri.Set(p[0], p[1])
		row := ScoreMasked(protein, s1, s2, tri, r)
		for i := range row {
			if row[i] > prevRow[i] {
				t.Fatalf("after marking %v: bottom[%d] rose from %d to %d", p, i, prevRow[i], row[i])
			}
		}
		prevRow = row
	}
}

func TestTracebackScoresConsistent(t *testing.T) {
	// For random matrices: traceback from the best bottom cell must
	// reproduce the score by summing exchange values minus gap costs.
	protein := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	for seed := uint64(0); seed < 5; seed++ {
		full := seq.SyntheticTitin(160, seed)
		r := 80
		s1, s2 := full.Codes[:r], full.Codes[r:]
		m := Matrix(protein, s1, s2, nil, r)
		endX, score, _ := BestValidEnd(m[len(s1)][1:], nil)
		if endX == 0 {
			continue
		}
		a, err := Traceback(protein, m, s1, s2, nil, r, endX)
		if err != nil {
			t.Fatal(err)
		}
		if a.Score != score {
			t.Fatalf("traceback score %d != matrix score %d", a.Score, score)
		}
		if got := pathScore(protein, s1, s2, a.Pairs); got != score {
			t.Fatalf("seed %d: recomputed path score %d, want %d (pairs %v)", seed, got, score, a.Pairs)
		}
		// pairs must be strictly increasing in both coordinates
		for i := 1; i < len(a.Pairs); i++ {
			if a.Pairs[i].Y <= a.Pairs[i-1].Y || a.Pairs[i].X <= a.Pairs[i-1].X {
				t.Fatalf("path not strictly increasing: %v", a.Pairs)
			}
		}
	}
}

// pathScore recomputes an alignment's score from its matched pairs under
// the paper's gap model: consecutive pairs (y,x) -> (y',x') cost a gap of
// length (y'-y-1) in one sequence and (x'-x-1) in the other.
func pathScore(p Params, s1, s2 []byte, pairs []Pair) int32 {
	var total int32
	for i, pr := range pairs {
		total += p.Exch.Score(s1[pr.Y-1], s2[pr.X-1])
		if i > 0 {
			dy := pr.Y - pairs[i-1].Y - 1
			dx := pr.X - pairs[i-1].X - 1
			total -= p.Gap.Cost(dy)
			total -= p.Gap.Cost(dx)
		}
	}
	return total
}

func TestBestValidEnd(t *testing.T) {
	bottom := []int32{0, 5, 3, 9, 9, 0}
	endX, score, rejected := BestValidEnd(bottom, nil)
	if endX != 4 || score != 9 || rejected != 0 {
		t.Errorf("unmasked: got (%d,%d,%d), want (4,9,0)", endX, score, rejected)
	}
	// shadow rejection: cell 4 changed value vs the original -> invalid
	orig := []int32{0, 5, 3, 12, 9, 0}
	endX, score, rejected = BestValidEnd(bottom, orig)
	if endX != 5 || score != 9 || rejected != 1 {
		t.Errorf("masked: got (%d,%d,%d), want (5,9,1)", endX, score, rejected)
	}
	// nothing valid
	endX, score, _ = BestValidEnd([]int32{0, 0}, nil)
	if endX != 0 || score != 0 {
		t.Errorf("all-zero: got (%d,%d), want (0,0)", endX, score)
	}
	for _, c := range []struct {
		name         string
		bottom, orig []int32
		endX         int
		score        int32
		rejected     int64
	}{
		// a changed cell that is no longer positive is not a shadow
		{"v<=0 differs", []int32{0, -2, 4}, []int32{3, 5, 4}, 3, 4, 0},
		// equal maxima: the first column wins, with or without orig
		{"tie", []int32{2, 7, 1, 7}, nil, 2, 7, 0},
		{"tie masked", []int32{2, 7, 1, 7}, []int32{2, 7, 1, 7}, 2, 7, 0},
		{"all zero masked", []int32{0, 0, 0}, []int32{0, 4, 0}, 0, 0, 0},
	} {
		endX, score, rejected := BestValidEnd(c.bottom, c.orig)
		if endX != c.endX || score != c.score || rejected != c.rejected {
			t.Errorf("%s: got (%d,%d,%d), want (%d,%d,%d)", c.name, endX, score, rejected, c.endX, c.score, c.rejected)
		}
	}
}

func TestTracebackErrors(t *testing.T) {
	s1 := seq.DNA.MustEncode("AC")
	s2 := seq.DNA.MustEncode("GT")
	m := Matrix(paperParams, s1, s2, nil, 0)
	if _, err := Traceback(paperParams, m, s1, s2, nil, 0, 1); err == nil {
		t.Error("traceback from zero cell did not error")
	}
	if _, err := Traceback(paperParams, m, s1, s2, nil, 0, 0); err == nil {
		t.Error("traceback from column 0 did not error")
	}
	if _, err := Traceback(paperParams, m, s1, s2, nil, 0, 3); err == nil {
		t.Error("traceback beyond last column did not error")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := paperParams.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{Gap: scoring.PaperGap}).Validate(); err == nil {
		t.Error("nil matrix accepted")
	}
	if err := (Params{Exch: scoring.PaperDNA, Gap: scoring.Gap{Open: 1}}).Validate(); err == nil {
		t.Error("zero-extension gap accepted")
	}
}

func TestStripedBoundaryWidths(t *testing.T) {
	// widths around the operand length exercise the <=width fast path and
	// single-column stripes
	protein := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(90, 2)
	r := 45
	s1, s2 := full.Codes[:r], full.Codes[r:]
	want := Score(protein, s1, s2)
	for _, w := range []int{1, 2, 3, 44, 45, 46, 100, 0, -5} {
		got := ScoreStriped(protein, s1, s2, nil, r, w)
		if !equalRows(got, want) {
			t.Errorf("width %d disagrees with unstriped kernel", w)
		}
	}
}

func TestCells(t *testing.T) {
	if Cells(100, 200) != 20000 {
		t.Errorf("Cells(100,200) = %d", Cells(100, 200))
	}
	for _, c := range [][2]int{{0, 5}, {5, 0}, {-3, 7}, {7, -3}, {-1, -1}} {
		if got := Cells(c[0], c[1]); got != 0 {
			t.Errorf("Cells(%d,%d) = %d, want 0", c[0], c[1], got)
		}
	}
	// The product saturates instead of wrapping negative.
	huge := int(math.MaxInt64 / 2)
	if got := Cells(huge, huge); got != math.MaxInt64 {
		t.Errorf("Cells(huge,huge) = %d, want MaxInt64", got)
	}
	if got := Cells(math.MaxInt64, 2); got != math.MaxInt64 {
		t.Errorf("Cells(MaxInt64,2) = %d, want MaxInt64", got)
	}
}

func equalRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
