package align

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// rowTiers are the ladder's rungs this CPU has, scalar first.
func rowTiers() []Tier {
	tiers := []Tier{TierScalar}
	if DetectedTier() >= TierInt32x8 {
		tiers = append(tiers, TierInt32x8)
	}
	if DetectedTier() >= TierInt16x16 {
		tiers = append(tiers, TierInt16x16)
	}
	return tiers
}

// forceTier sets the active kernel tier until the returned func puts the
// previous one back (the detected tier, or what REPRO_KERNEL_TIER forced
// for the whole run).
func forceTier(t testing.TB, tier Tier) (restore func()) {
	t.Helper()
	prev := ActiveTier()
	if err := SetKernelTier(tier.String()); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := SetKernelTier(prev.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// rowWidths are the widths the harnesses sweep: every width across the
// first three int16 blocks, and one column either side of later block
// boundaries.
func rowWidths() []int {
	var ws []int
	for n := 1; n <= 48; n++ {
		ws = append(ws, n)
	}
	for _, k := range []int{4, 8, 16} {
		ws = append(ws, 16*k-1, 16*k, 16*k+1)
	}
	return ws
}

// maskColumns are the columns (1-based) whose override bits the
// harnesses set in a width-n row: either side of the first block
// boundary of both vector widths (8 and 16 columns) and the two ends.
func maskColumns(n int) []int {
	var cols []int
	for _, c := range []int{1, 7, 8, 15, 16, 17, n} {
		if c <= n && (len(cols) == 0 || cols[len(cols)-1] != c) {
			cols = append(cols, c)
		}
	}
	return cols
}

// rowModels are the scoring models of the row harnesses: the everyday
// ones, and the corners of what the int16 rung accepts — exchange values
// at +-(Int16Bias-1), open+ext at MaxGapInt16-1 with the weight on
// either side, and gap extensions large enough that the kernel's
// (1..16)*ext ramp clips at 32767 (ext >= 2048) — plus one model past
// the int16 bounds on each count, which the int32 twin must take, and
// one past the twin's own gap bound, which only the Go row takes.
var rowModels = []struct {
	name string
	p    Params
}{
	{"BLOSUM62", Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}},
	{"PAM250", Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}},
	{"paper-dna", Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}},
	{"open0", Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 0, Ext: 1}}},
	{"ext-saturates-ramp", Params{Exch: scoring.Unit("u", seq.DNA, 40, -30), Gap: scoring.Gap{Open: 5, Ext: 2100}}},
	{"ext-at-bound", Params{Exch: scoring.Unit("u", seq.DNA, 9, -7), Gap: scoring.Gap{Open: 0, Ext: MaxGapInt16 - 1}}},
	{"open-at-bound", Params{Exch: scoring.Unit("u", seq.DNA, 9, -7), Gap: scoring.Gap{Open: MaxGapInt16 - 2, Ext: 1}}},
	{"exch-at-bias", Params{Exch: scoring.Unit("u", seq.DNA, Int16Bias-1, -(Int16Bias - 1)), Gap: scoring.Gap{Open: 3, Ext: 2}}},
	{"exch-past-bias", Params{Exch: scoring.Unit("u", seq.DNA, Int16Bias, -3), Gap: scoring.PaperGap}},
	{"gap-past-int16", Params{Exch: scoring.PaperDNA, Gap: scoring.Gap{Open: MaxGapInt16, Ext: 40000}}},
	{"gap-past-int32", Params{Exch: scoring.PaperDNA, Gap: scoring.Gap{Open: maxGapInt32, Ext: 1}}},
}

// rowCase is one window of the driver harness.
type rowCase struct {
	name string
	p    Params
	s    []byte
	w    Rect
	tri  *triangle.Triangle
	want Tier // the widest tier RowTier should grant it
}

// rowCases builds the driver harness's table: every model over every
// width (as a window of a random sequence in the model's alphabet, a few
// rows high, with and without override bits at the mask columns of every
// row), then the score-bound cases: homopolymer windows one residue
// either side of MaxScore*min(H,W) = SatLimit16, whose best score really
// is that product, and the middle split of PR 22's 3 800-residue poly-W
// under PAM250 (17 * 1 900 = 32 300).
func rowCases(short bool) []rowCase {
	var cases []rowCase
	for _, rm := range rowModels {
		alpha := rm.p.Exch.Alphabet()
		for _, n := range rowWidths() {
			if short && n > 48 && n%16 != 1 {
				continue
			}
			h := 2 + n%5
			s := seq.Random(alpha, h+n, uint64(n)).Codes
			w := Rect{Y0: 1, Y1: h, X0: h + 1, X1: h + n}
			tri := triangle.New(len(s))
			for y := w.Y0; y <= w.Y1; y++ {
				for _, c := range maskColumns(n) {
					tri.Set(y, w.X0-1+c)
				}
			}
			want := TierInt16x16
			switch {
			case n < RowBlock || rm.name == "gap-past-int32":
				want = TierScalar
			case rm.name == "exch-past-bias" || rm.name == "gap-past-int16":
				want = TierInt32x8
			}
			for _, tc := range []*triangle.Triangle{nil, tri} {
				cases = append(cases, rowCase{fmt.Sprintf("%s/n=%d/masked=%v", rm.name, n, tc != nil), rm.p, s, w, tc, want})
			}
		}
	}
	const hi = 101
	at := (SatLimit16 + hi - 1) / hi // smallest side with hi*side >= SatLimit16
	sat := Params{Exch: scoring.Unit("sat", seq.DNA, hi, -1), Gap: scoring.PaperGap}
	for _, side := range []int{at - 1, at} {
		want := TierInt16x16
		if side == at {
			want = TierInt32x8
		}
		s := make([]byte, 2*side+40)
		cases = append(cases,
			rowCase{fmt.Sprintf("bound/square=%d", side), sat, s, Rect{Y0: 1, Y1: side, X0: side + 1, X1: 2 * side}, nil, want},
			rowCase{fmt.Sprintf("bound/wide=%d", side), sat, s, Rect{Y0: 1, Y1: side, X0: side + 1, X1: 2*side + 40}, nil, want},
		)
	}
	if !short {
		w, err := seq.Protein.Encode(strings.Repeat("W", 3800))
		if err != nil {
			panic(err)
		}
		polyW := Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}
		cases = append(cases, rowCase{"poly-W/PAM250", polyW, w, Rect{Y0: 1, Y1: 1900, X0: 1901, X1: 3800}, nil, TierInt32x8})
	}
	return cases
}

// TestRowTiersMatchGoRows is the driver half of the row-kernel harness:
// under each forced tier, ScoreWindow's bottom row, every MatrixWindow
// cell, the column gap maxima the call leaves behind and the traceback
// from the best ending must equal what the forced-scalar tier produces —
// the Go row gotohRow and its zeroMasked pass, themselves held to the
// naive oracles by checkWindow and TestMaskedMatchesNaiveBorderProperty —
// and the call must have run on the tier RowTier promises. One Scratch
// serves a whole tier, so arena and query-profile reuse across shapes,
// sequences and models is exercised too. (Mutation-checked: dropping the
// low-to-high hand-over, the block carry, or zeroMasked's store each
// fails it.)
func TestRowTiersMatchGoRows(t *testing.T) {
	type outcome struct {
		bottom []int32
		cells  [][]int32
		maxY   []int32
		aln    Alignment
	}
	run := func(sc *Scratch, c rowCase) (o outcome) {
		o.bottom = append(o.bottom, sc.ScoreWindow(c.p, c.s, c.w, c.tri)...)
		mtx := sc.MatrixWindow(c.p, c.s, c.w, c.tri)
		for _, row := range mtx {
			o.cells = append(o.cells, append([]int32(nil), row...))
		}
		n := c.w.W()
		switch sc.Tier() {
		case TierInt16x16:
			for _, v := range sc.maxY16[:n] {
				o.maxY = append(o.maxY, int32(v))
			}
		case TierInt32x8:
			o.maxY = append(o.maxY, sc.maxY[:n]...)
		default:
			o.maxY = append(o.maxY, sc.maxY[1:n+1]...)
		}
		if endX, _, _ := BestValidEnd(o.bottom, nil); endX > 0 {
			var err error
			if o.aln, err = sc.TracebackWindow(c.p, mtx, c.s, c.w, c.tri, endX); err != nil {
				t.Fatalf("%s: traceback: %v", c.name, err)
			}
		}
		return o
	}
	cases := rowCases(testing.Short())
	want := make([]outcome, len(cases))
	for _, tier := range rowTiers() {
		restore := forceTier(t, tier)
		sc := NewScratch()
		for i, c := range cases {
			got := run(sc, c)
			if wantTier := min(tier, c.want); sc.Tier() != wantTier || RowTier(c.p, c.w.H(), c.w.W()) != wantTier {
				t.Fatalf("%s under %s: ran on %s, RowTier says %s, want %s", c.name, tier, sc.Tier(), RowTier(c.p, c.w.H(), c.w.W()), wantTier)
			}
			if tier == TierScalar {
				want[i] = got
				continue
			}
			ref := want[i]
			if !equalI32(got.bottom, ref.bottom) {
				t.Fatalf("%s under %s: bottom row\n got %v\nwant %v", c.name, tier, got.bottom, ref.bottom)
			}
			for y := range ref.cells {
				if !equalI32(got.cells[y], ref.cells[y]) {
					t.Fatalf("%s under %s: matrix row %d\n got %v\nwant %v", c.name, tier, y, got.cells[y], ref.cells[y])
				}
			}
			if !equalI32(got.maxY, ref.maxY) {
				t.Fatalf("%s under %s: column gap maxima\n got %v\nwant %v", c.name, tier, got.maxY, ref.maxY)
			}
			if got.aln.Score != ref.aln.Score || fmt.Sprint(got.aln.Pairs) != fmt.Sprint(ref.aln.Pairs) {
				t.Fatalf("%s under %s: traceback %+v, want %+v", c.name, tier, got.aln, ref.aln)
			}
		}
		restore()
	}
	if len(rowTiers()) == 1 {
		t.Log("vector tiers unavailable on this CPU: only the Go rows ran")
	}
}

// The bound cases must really reach their bound, or the harness would
// not show that the int16 rung is exact right up to it and that the
// int32 twin takes over past it.
func TestRowBoundCasesReachTheBound(t *testing.T) {
	for _, c := range rowCases(true) {
		if !strings.HasPrefix(c.name, "bound/") {
			continue
		}
		peak := MaxRowScore(new(Scratch).ScoreWindow(c.p, c.s, c.w, nil))
		if want := c.p.Exch.MaxScore() * int32(min(c.w.H(), c.w.W())); peak != want {
			t.Errorf("%s: best score %d, want MaxScore*min(H,W) = %d", c.name, peak, want)
		}
		if (peak >= SatLimit16) != (c.want == TierInt32x8) {
			t.Errorf("%s: best score %d against limit %d, yet the case expects %s", c.name, peak, SatLimit16, c.want)
		}
	}
}

// The query profile belongs to the columns a call reads, not to the
// slice header it was handed: a caller that overwrites its sequence
// buffer in place, or aligns another sequence of the same length, must
// not be served exchange values of the old residues.
func TestRowProfileFollowsTheResidues(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	a := seq.Random(seq.Protein, 90, 1).Codes
	b := seq.Random(seq.Protein, 90, 2).Codes
	w := Rect{Y0: 1, Y1: 30, X0: 31, X1: 90}
	sc := NewScratch()
	buf := append([]byte(nil), a...)
	sc.ScoreWindow(p, buf, w, nil)
	copy(buf, b) // same backing array, new residues
	if got, want := sc.ScoreWindow(p, buf, w, nil), new(Scratch).ScoreWindow(p, b, w, nil); !equalI32(got, want) {
		t.Fatalf("stale profile after an in-place overwrite:\n got %v\nwant %v", got, want)
	}
	if got, want := sc.ScoreWindow(p, a, w, nil), new(Scratch).ScoreWindow(p, a, w, nil); !equalI32(got, want) {
		t.Fatalf("stale profile after switching sequences:\n got %v\nwant %v", got, want)
	}
	pam := Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}
	if got, want := sc.ScoreWindow(pam, a, w, nil), new(Scratch).ScoreWindow(pam, a, w, nil); !equalI32(got, want) {
		t.Fatalf("stale profile after switching matrices:\n got %v\nwant %v", got, want)
	}
}

func equalI32(a, b []int32) bool {
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
