package align

import (
	"fmt"
	"slices"
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
	if DetectedTier() >= TierU8x32 {
		tiers = append(tiers, TierU8x32)
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

// setSegWidth sends every int16 score pass at least w columns wide to
// the segmented kernel until the returned func puts the previous width
// back.
func setSegWidth(w int) (restore func()) {
	prev := segWidthOverride
	segWidthOverride = w
	return func() { segWidthOverride = prev }
}

// rowRung is one way the harnesses run a window: a forced tier and, on
// the int16 and byte rungs, whether every int16 score pass one block wide
// or more runs in segmented rows (segs), as only passes segWidth wide do
// outside the tests.
type rowRung struct {
	tier Tier
	segs bool
}

func (r rowRung) String() string {
	if r.segs {
		return r.tier.String() + "/segmented"
	}
	return r.tier.String()
}

// rowRungs are rowTiers, then the int16 and byte rungs again in
// segmented rows.
func rowRungs() []rowRung {
	var rungs []rowRung
	for _, tier := range rowTiers() {
		rungs = append(rungs, rowRung{tier: tier})
	}
	for _, tier := range rowTiers() {
		if tier >= TierInt16x16 {
			rungs = append(rungs, rowRung{tier: tier, segs: true})
		}
	}
	return rungs
}

// force runs the rung until the returned func puts the previous tier and
// segment width back.
func (r rowRung) force(t testing.TB) (restore func()) {
	t.Helper()
	restoreTier := forceTier(t, r.tier)
	w := 0
	if r.segs {
		w = RowBlock
	}
	restoreSegs := setSegWidth(w)
	return func() {
		restoreSegs()
		restoreTier()
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
// boundary of both vector widths (8 and 16 columns), either side of the
// first, middle and last segment boundaries of segmented rows, and the
// two ends.
func maskColumns(n int) []int {
	segs := (n + RowBlock - 1) / RowBlock
	var cols []int
	for _, c := range []int{1, 7, 8, 15, 16, 17, segs, segs + 1, 8 * segs, 8*segs + 1, 15 * segs, 15*segs + 1, n} {
		if c <= n {
			cols = append(cols, c)
		}
	}
	slices.Sort(cols)
	return slices.Compact(cols)
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
	{"dna-unit", Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}},
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
// under each forced tier, ScoreWindow's bottom row, every cell of the
// window's matrix, the column gap maxima the call leaves behind and the traceback
// from the best ending must equal what the forced-scalar tier produces —
// the Go row gotohRow and its zeroMasked pass, themselves held to the
// naive oracles by checkWindow and TestMaskedMatchesNaiveBorderProperty —
// and the call must have run on the tier RowTier promises. The int16 and
// byte rungs run a second time with every score pass in segmented rows,
// whose column gap maxima are held to the Go row's as well. One Scratch
// serves a whole rung, so arena and query-profile reuse across shapes,
// sequences and models is exercised too. (Mutation-checked: dropping the
// low-to-high hand-over, the block carry, or zeroMasked's store each
// fails it, and so does dropping the carry between segments.)
func TestRowTiersMatchGoRows(t *testing.T) {
	type outcome struct {
		bottom  []int32
		cells   [][]int32
		maxY    []int32
		segMaxY []int32 // a segmented score pass's, in column order
		handed  bool    // the byte rung handed that pass over
		aln     Alignment
	}
	run := func(sc *Scratch, c rowCase) (o outcome) {
		o.bottom = append(o.bottom, sc.ScoreWindow(c.p, c.s, c.w, c.tri)...)
		n := c.w.W()
		if sc.Tier() == TierInt16x16 && segmentedRows(n) {
			o.segMaxY = make([]int32, n)
			unstripe(o.segMaxY, sc.segMaxY, (n+RowBlock-1)/RowBlock)
			o.handed = sc.Wasted() > 0
		}
		mtx := matrixWindow(sc, c.p, c.s, c.w, c.tri)
		for _, row := range mtx {
			o.cells = append(o.cells, append([]int32(nil), row...))
		}
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
			if o.aln, err = tracebackWindow(sc, c.p, mtx, c.s, c.w, c.tri, endX); err != nil {
				t.Fatalf("%s: traceback: %v", c.name, err)
			}
		}
		return o
	}
	cases := rowCases(testing.Short())
	want := make([]outcome, len(cases))
	for _, rung := range rowRungs() {
		restore := rung.force(t)
		tier := rung.tier
		sc := NewScratch()
		for i, c := range cases {
			got := run(sc, c)
			if wantTier := min(tier, c.want); sc.Tier() != wantTier || RowTier(c.p, c.w.H(), c.w.W()) != wantTier {
				t.Fatalf("%s under %s: ran on %s, RowTier says %s, want %s", c.name, rung, sc.Tier(), RowTier(c.p, c.w.H(), c.w.W()), wantTier)
			}
			if tier == TierScalar {
				want[i] = got
				continue
			}
			ref := want[i]
			if wantMaxY := ref.maxY; got.segMaxY != nil {
				if got.handed { // a byte state's gap maxima are clamped at 0, which stands for any value <= 0
					got.segMaxY, wantMaxY = clampI32(got.segMaxY), clampI32(wantMaxY)
				}
				if !equalI32(got.segMaxY, wantMaxY) {
					t.Fatalf("%s under %s: the segmented pass's column gap maxima\n got %v\nwant %v", c.name, rung, got.segMaxY, wantMaxY)
				}
			}
			if !equalI32(got.bottom, ref.bottom) {
				t.Fatalf("%s under %s: bottom row\n got %v\nwant %v", c.name, rung, got.bottom, ref.bottom)
			}
			for y := range ref.cells {
				if !equalI32(got.cells[y], ref.cells[y]) {
					t.Fatalf("%s under %s: matrix row %d\n got %v\nwant %v", c.name, rung, y, got.cells[y], ref.cells[y])
				}
			}
			if !equalI32(got.maxY, ref.maxY) {
				t.Fatalf("%s under %s: column gap maxima\n got %v\nwant %v", c.name, rung, got.maxY, ref.maxY)
			}
			if got.aln.Score != ref.aln.Score || fmt.Sprint(got.aln.Pairs) != fmt.Sprint(ref.aln.Pairs) {
				t.Fatalf("%s under %s: traceback %+v, want %+v", c.name, rung, got.aln, ref.aln)
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

// clampI32 returns a copy of a clamped at 0 from below.
func clampI32(a []int32) []int32 {
	out := make([]int32, len(a))
	for i, v := range a {
		out[i] = max(v, 0)
	}
	return out
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

// byteBoundaryCase builds a homopolymer window whose largest cell is
// exactly hi*h, like multialign's satBoundaryCase: with a match-only
// diagonal, cell (y, x) is hi*min(y, x), and a window h rows high and
// w >= h columns wide — a whole number of byte blocks, with the same
// residue after it — peaks at hi*h in its bottom row, the columns the
// kernel computes past the window included.
func byteBoundaryCase(hi, lo int16, h int) (p Params, s []byte, w Rect) {
	p = Params{Exch: scoring.Unit("sat8", seq.DNA, hi, lo), Gap: scoring.PaperGap}
	width := (h + 2*RowBlock) / (2 * RowBlock) * (2 * RowBlock)
	s = make([]byte, h+width+2*RowBlock)
	return p, s, Rect{Y0: 1, Y1: h, X0: h + 1, X1: h + width}
}

// Property: driving the peak cell to either side of the byte rung's flag
// level, 255 - bias with bias = -MinScore, must flip the flag exactly
// there: one below runs clean on the byte rung, at the level and one
// past it the pass flags at the first row that reaches it, hands over to
// the int16 rung there and counts that one row as wasted. The bottom row
// equals the Go row's on both sides, and a masked realignment of a clean
// window stays clean (masking only lowers cells).
func TestByteSaturationBoundaryProperty(t *testing.T) {
	if DetectedTier() < TierU8x32 {
		t.Skip("the byte rung needs AVX2")
	}
	defer forceTier(t, TierU8x32)()
	for _, m := range []struct{ hi, lo int16 }{{1, -1}, {1, -4}, {1, -10}, {5, -4}, {2, -1}} {
		level := 255 + int(m.lo)
		for _, peak := range []int{level - 1, level, level + 1} {
			h := peak / int(m.hi)
			if h*int(m.hi) != peak {
				continue // hi does not divide this peak: no homopolymer reaches it
			}
			p, s, w := byteBoundaryCase(m.hi, m.lo, h)
			sc := NewScratch()
			got := append([]int32(nil), sc.ScoreWindow(p, s, w, nil)...)
			where := fmt.Sprintf("hi=%d lo=%d peak=%d", m.hi, m.lo, peak)
			if best := MaxRowScore(got); int(best) != peak {
				t.Fatalf("%s: best score %d, the case does not reach its peak", where, best)
			}
			wantTier, wantWasted := TierU8x32, int64(0)
			if peak >= level {
				wantTier, wantWasted = TierInt16x16, int64(w.W()) // the flagged row, computed again

			}
			if sc.Tier() != wantTier || sc.Wasted() != wantWasted {
				t.Fatalf("%s: served by %s with %d wasted cells, want %s with %d", where, sc.Tier(), sc.Wasted(), wantTier, wantWasted)
			}
			restore := forceTier(t, TierScalar)
			want := new(Scratch).ScoreWindow(p, s, w, nil)
			restore()
			if !equalI32(got, want) {
				t.Fatalf("%s: bottom row differs from the Go row's", where)
			}
			if peak >= level {
				continue
			}
			tri := triangle.New(len(s))
			for y := w.Y0; y <= w.Y1; y++ {
				tri.Set(y, w.X0+y-1) // one pair per row, down a diagonal
			}
			sc.ScoreWindow(p, s, w, tri)
			if sc.Tier() != TierU8x32 || sc.Wasted() != 0 {
				t.Fatalf("%s: masked realignment of a clean window served by %s with %d wasted cells", where, sc.Tier(), sc.Wasted())
			}
		}
	}
}

// Property: a pass that flags part-way down hands the rows above the
// flag to the int16 rung, which carries on from them — the row above and
// the column gap maxima, clamped at zero — and must end on the Go row's
// bottom row, masked or not. The windows are splits of tandem arrays, so
// real gapped alignments cross the flag level somewhere in the middle;
// the test fails if no window hands over with rows left below its flag.
// It runs twice: on the row scan, and with every int16 pass in segmented
// rows, where the hand-over lays the byte state out in segments.
func TestByteHandOverProperty(t *testing.T) {
	if DetectedTier() < TierU8x32 {
		t.Skip("the byte rung needs AVX2")
	}
	defer forceTier(t, TierU8x32)()
	checkHandOvers(t)
	defer setSegWidth(RowBlock)()
	checkHandOvers(t)
}

// checkHandOvers is TestByteHandOverProperty's body on the segment
// width in force.
func checkHandOvers(t *testing.T) {
	dna := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 70, Copies: 6, FlankLen: 40,
		Profile: seq.MutationProfile{SubstRate: 0.08, IndelRate: 0.03, IndelExt: 0.5}, Seed: 3}).Codes
	protein := seq.Tandem(seq.TandemSpec{UnitLen: 60, Copies: 6, FlankLen: 40,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.03, IndelExt: 0.5}, Seed: 4}).Codes
	midway := 0
	for _, c := range []struct {
		name string
		p    Params
		s    []byte
	}{
		{"dna-unit", Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}, dna},
		{"paper-dna", Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}, dna},
		{"BLOSUM62", Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}, protein},
	} {
		level := 255 - exchBias(c.p.Exch)
		sc := NewScratch()
		for h := 40; h < len(c.s)-40; h += 23 {
			w := Rect{Y0: 1, Y1: h, X0: h + 1, X1: len(c.s)}
			tri := triangle.New(len(c.s))
			for y := w.Y0; y <= w.Y1 && y+70 <= len(c.s); y += 3 {
				tri.Set(y, y+70) // every third pair of the first copy's diagonal
			}
			for _, mask := range []*triangle.Triangle{nil, tri} {
				where := fmt.Sprintf("%s h=%d masked=%v segmented from %d", c.name, h, mask != nil, segWidthOverride)
				got := append([]int32(nil), sc.ScoreWindow(c.p, c.s, w, mask)...)
				tier, wasted := sc.Tier(), sc.Wasted()
				restore := forceTier(t, TierScalar)
				ref := new(Scratch)
				want := append([]int32(nil), ref.ScoreWindow(c.p, c.s, w, mask)...)
				mtx := matrixWindow(ref, c.p, c.s, w, mask)
				restore()
				if !equalI32(got, want) {
					t.Fatalf("%s: bottom row differs from the Go row's", where)
				}
				first := 0 // the first row holding a cell at the level
				for y := 1; y <= w.H() && first == 0; y++ {
					if MaxRowScore(mtx[y][1:]) >= level {
						first = y
					}
				}
				if first == 0 {
					continue // the kernel may still flag on a padding column: either tier is right
				}
				if tier != TierInt16x16 || wasted != int64(w.W()) {
					t.Fatalf("%s: row %d reaches %d, but the pass ran on %s with %d wasted cells", where, first, level, tier, wasted)
				}
				if first < w.H() {
					midway++
				}
			}
		}
	}
	if midway == 0 {
		t.Fatal("no window flagged above its bottom row: the hand-over went untested")
	}
}
