package align

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// setBlockRows forces the block traceback's block height to k rows until
// the returned func puts the previous height back.
func setBlockRows(k int) (restore func()) {
	prev := blockRowsOverride
	blockRowsOverride = k
	return func() { blockRowsOverride = prev }
}

// blockCase is one window of the block traceback's differential test,
// with its oracle: the Equation-1 matrix of the window (NaiveMatrix over
// the window's operands, masked by the window's pairs shifted to split
// coordinates), the window's original (unmasked) bottom row, and the
// traceback of that matrix from the best valid ending.
type blockCase struct {
	name string
	p    Params
	s    []byte
	w    Rect
	tri  *triangle.Triangle
	orig []int32
	want Alignment
	ok   bool // the window has a valid positive ending
}

// newBlockCase computes a case's oracle.
func newBlockCase(t testing.TB, name string, p Params, s []byte, w Rect, tri *triangle.Triangle) blockCase {
	t.Helper()
	s1, s2 := s[w.Y0-1:w.Y1], s[w.X0-1:w.X1]
	// the window's cell (y, x) is global pair (Y0-1+y, X0-1+x); NaiveMatrix
	// reads pair (y, r+x), so shift every set pair up by Y0-1
	r := w.X0 - w.Y0
	shifted := triangle.New(r + w.W())
	for y := 1; y <= w.H(); y++ {
		for x := 1; x <= w.W(); x++ {
			if tri.Get(w.Y0-1+y, w.X0-1+x) {
				shifted.Set(y, r+x)
			}
		}
	}
	naive := NaiveMatrix(p, s1, s2, shifted, r)
	c := blockCase{name: name, p: p, s: s, w: w, tri: tri, orig: NaiveMatrix(p, s1, s2, nil, r)[w.H()][1:]}
	endX, score, _ := BestValidEnd(naive[w.H()][1:], c.orig)
	if c.ok = endX > 0 && score > 0; c.ok {
		var err error
		if c.want, err = Traceback(p, naive, s1, s2, shifted, r, endX); err != nil {
			t.Fatalf("%s: oracle traceback: %v", name, err)
		}
	}
	return c
}

// blockCoverage tallies what the differential cases exercised.
type blockCoverage struct {
	multi, partial, cut int // multi-block windows; a partial last block; endX short of W
	vertical            int // vertical gaps whose two ends lie in different blocks
	handOn, handOff     int // byte hand-overs at a checkpoint row, and off one
}

// checkBlocks runs a masked pass over c's window on sc under the active
// tier and block height k, then the block traceback, and holds it to the
// oracle pair for pair.
func checkBlocks(t testing.TB, sc *Scratch, c blockCase, k int, cov *blockCoverage) {
	t.Helper()
	defer setBlockRows(k)()
	where := fmt.Sprintf("%s k=%d tier %s segmented from %d", c.name, k, ActiveTier(), segWidthOverride)
	sc.ScoreWindow(c.p, c.s, c.w, c.tri)
	if c.w.H() > k && sc.NeedsPass(c.p, c.s, c.w, c.tri) {
		t.Fatalf("%s: the masked pass left no checkpoints", where)
	}
	got, err := sc.TracebackBlocks(c.p, c.s, c.w, c.tri, c.orig)
	if !c.ok {
		if err == nil {
			t.Fatalf("%s: traceback of a window with no valid ending: %+v", where, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: block traceback: %v", where, err)
	}
	if got.Score != c.want.Score || fmt.Sprint(got.Pairs) != fmt.Sprint(c.want.Pairs) {
		t.Fatalf("%s: block traceback\n got %d %v\nwant %d %v", where, got.Score, got.Pairs, c.want.Score, c.want.Pairs)
	}
	if cov == nil || c.w.H() <= k {
		return
	}
	cov.multi++
	if c.w.H()%k != 0 {
		cov.partial++
	}
	if got.End().X < c.w.W() {
		cov.cut++
	}
	for i := 1; i < len(got.Pairs); i++ {
		a, b := got.Pairs[i-1], got.Pairs[i]
		if b.Y-a.Y > 1 && (a.Y-1)/k != (b.Y-1)/k {
			cov.vertical++
		}
	}
	if f := flaggedRow(c.p, c.s, c.w, c.tri); f > 0 && f < c.w.H() {
		if f%k == 0 {
			cov.handOn++
		} else {
			cov.handOff++
		}
	}
}

// flaggedRow is the row at which ScoreWindow's byte pass over w hands
// over to the int16 rung, 0 when it runs clean or not on the byte rung.
func flaggedRow(p Params, s []byte, w Rect, tri *triangle.Triangle) int {
	sc := NewScratch()
	if sc.rowTier(p, w.H(), w.W()) != TierInt16x16 || !sc.model.byteRung(w.H(), w.W()) {
		return 0
	}
	s1 := s[w.Y0-1 : w.Y1]
	sc.ck.start(s1, w.W(), tri, w.Y0-1)
	_, f := sc.rowsU8(p, s1, s, w.X0-1, w.W(), tri, w.Y0-1, w.X0-1)
	return f
}

// blockCases are the differential test's windows: random rectangles of
// tandem arrays with indels (so that paths take vertical gaps), under a
// DNA model whose windows cross the byte rung's flag level within a few
// dozen rows, the DNA preset's model and BLOSUM62, each masked three
// ways: by no pair, by the path of the window's own best alignment (an
// accepted top, as the engine realigns after it) and by random pairs.
func blockCases(t testing.TB) []blockCase {
	dna := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 24, Copies: 9, FlankLen: 12,
		Profile: seq.MutationProfile{SubstRate: 0.08, IndelRate: 0.06, IndelExt: 0.5}, Seed: 11}).Codes
	protein := seq.Tandem(seq.TandemSpec{UnitLen: 22, Copies: 8, FlankLen: 10,
		Profile: seq.MutationProfile{SubstRate: 0.15, IndelRate: 0.06, IndelExt: 0.5}, Seed: 12}).Codes
	var cases []blockCase
	for _, in := range []struct {
		name string
		p    Params
		s    []byte
	}{
		{"hot-dna", Params{Exch: scoring.Unit("hot", seq.DNA, 12, -6), Gap: scoring.Gap{Open: 6, Ext: 1}}, dna},
		{"dna-unit", Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}, dna},
		{"BLOSUM62", Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}, protein},
	} {
		m := len(in.s)
		rng := rand.New(rand.NewPCG(uint64(m), 7))
		for i := 0; i < 12; i++ {
			h := 8 + rng.IntN(56)
			y0 := 1 + rng.IntN(m/2-h)
			x0 := y0 + h + rng.IntN(30)
			w := Rect{Y0: y0, Y1: y0 + h - 1, X0: x0, X1: min(m, x0+7+rng.IntN(64))}
			for kind, tri := range []*triangle.Triangle{triangle.New(m), acceptedPath(in.p, in.s, w), randomPairs(m, w, rng)} {
				cases = append(cases, newBlockCase(t, fmt.Sprintf("%s/%+v/mask%d", in.name, w, kind), in.p, in.s, w, tri))
			}
		}
	}
	return cases
}

// acceptedPath is a triangle holding the path of the best unmasked
// alignment of window w.
func acceptedPath(p Params, s []byte, w Rect) *triangle.Triangle {
	tri := triangle.New(len(s))
	var sc Scratch
	mtx := matrixWindow(&sc, p, s, w, nil)
	if endX, _, _ := BestValidEnd(mtx[w.H()][1:], nil); endX > 0 {
		a, err := tracebackWindow(&sc, p, mtx, s, w, nil, endX)
		if err != nil {
			panic(err)
		}
		for _, pr := range a.Pairs {
			tri.Set(w.Y0-1+pr.Y, w.X0-1+pr.X)
		}
	}
	return tri
}

// randomPairs is a triangle holding a few random pairs of window w.
func randomPairs(m int, w Rect, rng *rand.Rand) *triangle.Triangle {
	tri := triangle.New(m)
	for n := w.H() * w.W() / 40; n >= 0; n-- {
		tri.Set(w.Y0+rng.IntN(w.H()), w.X0+rng.IntN(w.W()))
	}
	return tri
}

// TestTracebackBlocksMatchNaive is the block traceback's differential
// test: with blocks forced to 1, 2, 3 and 7 rows, under every rung this
// CPU has (the int16 and byte rungs also in segmented rows), the
// traceback after a masked pass must equal Traceback over NaiveMatrix
// pair for pair, on windows that between them take vertical
// gaps across block boundaries, end in a partial block, end short of
// the window's last column and, on the byte rung, hand over to int16 on
// a checkpoint row and off one. One Scratch serves a whole tier, so the
// checkpoints of every pass meet the arena left by the one before.
func TestTracebackBlocksMatchNaive(t *testing.T) {
	cases := blockCases(t)
	for _, rung := range rowRungs() {
		restore := rung.force(t)
		tier := rung.tier
		var cov blockCoverage
		sc := NewScratch()
		for _, k := range []int{1, 2, 3, 7} {
			for _, c := range cases {
				checkBlocks(t, sc, c, k, &cov)
			}
		}
		restore()
		t.Logf("%s: %+v", rung, cov)
		if cov.multi == 0 || cov.partial == 0 || cov.cut == 0 || cov.vertical == 0 {
			t.Errorf("%s: a case went untested: %+v", rung, cov)
		}
		if tier == TierU8x32 && (cov.handOn == 0 || cov.handOff == 0) {
			t.Errorf("%s: hand-overs on and off a checkpoint row went untested: %+v", rung, cov)
		}
	}
}

// A masked pass's checkpoints belong to that pass: another masked pass,
// a change to the triangle, a snapshot of it or other residues under the
// same buffer leave none to read; an unmasked pass leaves them be.
func TestCheckpointsFollowThePass(t *testing.T) {
	defer setBlockRows(4)()
	p := Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	s := seq.Random(seq.DNA, 120, 3).Codes
	w := Rect{Y0: 1, Y1: 30, X0: 41, X1: 100}
	other := Rect{Y0: 2, Y1: 30, X0: 41, X1: 100}
	tri := triangle.New(len(s))
	sc := NewScratch()
	if !sc.NeedsPass(p, s, w, tri) {
		t.Fatal("a fresh scratch has checkpoints")
	}
	sc.ScoreWindow(p, s, w, tri)
	if sc.NeedsPass(p, s, w, tri) {
		t.Fatal("no checkpoints after the masked pass")
	}
	if !sc.NeedsPass(p, s, w, tri.Clone()) {
		t.Error("checkpoints read against a snapshot of the triangle")
	}
	if !sc.NeedsPass(p, s, other, tri) {
		t.Error("checkpoints read for another window")
	}
	if !sc.NeedsPass(Params{Exch: scoring.PaperDNA, Gap: p.Gap}, s, w, tri) {
		t.Error("checkpoints read under another scoring model")
	}
	buf := append([]byte(nil), s...)
	sc.ScoreWindow(p, buf, w, tri)
	buf[5] = (buf[5] + 1) % 4
	if !sc.NeedsPass(p, buf, w, tri) {
		t.Error("checkpoints read after the residues changed in place")
	}
	sc.ScoreWindow(p, s, w, tri)
	tri.Set(60, 100) // outside the window: the triangle changed all the same
	if !sc.NeedsPass(p, s, w, tri) {
		t.Error("checkpoints read after the triangle changed")
	}
	sc.ScoreWindow(p, s, w, tri)
	sc.ScoreWindow(p, s, other, nil)
	if sc.NeedsPass(p, s, w, tri) {
		t.Error("an unmasked pass took the checkpoints of a masked one")
	}
	sc.ScoreWindow(p, s, other, tri)
	if !sc.NeedsPass(p, s, w, tri) {
		t.Error("checkpoints outlived the next masked pass")
	}
	if _, err := sc.TracebackBlocks(p, s, w, tri, nil); err == nil {
		t.Error("block traceback without checkpoints did not error")
	}
}

// FuzzTracebackBlocks drives the block traceback over arbitrary
// windows, masks (FuzzScoreWindow's five kinds) and block heights 1..8
// against Traceback over NaiveMatrix, under every rung this CPU has, the
// int16 and byte rungs also in segmented rows.
func FuzzTracebackBlocks(f *testing.F) {
	repeat := []byte("MKVLAAGIWQRSTMKVLAAGIWQRSTMKVIAAGLWQKSTPEMKVLAAGIWQRST")
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(repeat, uint16(0), uint16(25), uint16(0), uint16(60), kind, uint64(kind), uint8(kind))
		f.Add(repeat, uint16(3), uint16(11), uint16(4), uint16(17), kind, uint64(7+kind), uint8(2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, y0, h, gap, wd uint16, kind uint8, maskSeed uint64, k uint8) {
		p := windowParams(t)
		s, w, ok := fuzzWindow(t, raw, p, y0, h, gap, wd)
		if !ok {
			return
		}
		tri := fuzzMask(t, p, s, w, kind, maskSeed)
		if tri == nil {
			tri = triangle.New(len(s)) // the block traceback masks by the engine's triangle, never nil
		}
		c := newBlockCase(t, "fuzz", p, s, w, tri)
		for _, rung := range rowRungs() {
			restore := rung.force(t)
			checkBlocks(t, NewScratch(), c, 1+int(k%8), nil)
			restore()
		}
	})
}
