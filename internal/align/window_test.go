package align

import (
	"math/rand/v2"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// windowParams returns the standard protein scoring model for tests.
func windowParams(t *testing.T) Params {
	t.Helper()
	exch, ok := scoring.ByName("BLOSUM62")
	if !ok {
		t.Fatal("BLOSUM62 not registered")
	}
	return Params{Exch: exch, Gap: scoring.DefaultProteinGap}
}

// TestScoreWindowMatchesSplitKernel checks that a window spanning the
// entire split matrix [1..r] x [r+1..m] reproduces the split kernel's
// bottom row exactly, unmasked and masked.
func TestScoreWindowMatchesSplitKernel(t *testing.T) {
	p := windowParams(t)
	for seed := uint64(1); seed <= 5; seed++ {
		s := seq.Tandem(seq.TandemSpec{UnitLen: 20, Copies: 5, FlankLen: 10,
			Profile: seq.DefaultDivergence, Seed: seed}).Codes
		m := len(s)
		tri := triangle.New(m)
		r := m / 2
		// Mark some random pairs to exercise masking.
		rng := rand.New(rand.NewPCG(seed, 42))
		for k := 0; k < 50; k++ {
			i := 1 + rng.IntN(m-1)
			j := i + 1 + rng.IntN(m-i)
			tri.Set(i, j)
		}
		for _, tc := range []*triangle.Triangle{nil, tri} {
			want := ScoreMasked(p, s[:r], s[r:], tc, r)
			got := new(Scratch).ScoreWindow(p, s, Rect{Y0: 1, Y1: r, X0: r + 1, X1: m}, tc)
			if len(got) != len(want) {
				t.Fatalf("seed %d: row length %d != %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d masked=%v: col %d: window %d != split %d",
						seed, tc != nil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScoreWindowSubwindowConsistency checks that a sub-window's matrix
// values match a brute-force recurrence restricted to the window.
func TestScoreWindowSubwindowConsistency(t *testing.T) {
	p := windowParams(t)
	s := seq.Tandem(seq.TandemSpec{UnitLen: 15, Copies: 6, FlankLen: 5,
		Profile: seq.DefaultDivergence, Seed: 7}).Codes
	m := len(s)
	rng := rand.New(rand.NewPCG(9, 9))
	tri := triangle.New(m)
	for k := 0; k < 40; k++ {
		i := 1 + rng.IntN(m-1)
		j := i + 1 + rng.IntN(m-i)
		tri.Set(i, j)
	}
	for trial := 0; trial < 20; trial++ {
		y0 := 1 + rng.IntN(m/2)
		y1 := y0 + rng.IntN(m/2-1)
		if y1 >= m {
			y1 = m - 1
		}
		x0 := y1 + 1 + rng.IntN(m-y1)
		if x0 > m {
			x0 = m
		}
		x1 := x0 + rng.IntN(m-x0+1)
		w := Rect{Y0: y0, Y1: y1, X0: x0, X1: x1}
		if err := w.Validate(m); err != nil {
			t.Fatalf("trial %d: generated invalid window: %v", trial, err)
		}
		for _, mask := range []*triangle.Triangle{nil, tri} {
			checkWindow(t, p, s, w, mask)
		}
	}
}

// checkWindow holds the windowed kernels to the naiveWindow oracle on
// one rectangle and one mask (nil = unmasked): ScoreWindow's bottom row,
// every cell of the window's matrix, and — when the window holds a
// positive alignment — that the traceback from the best ending lands on
// the oracle's score over positive, un-overridden, strictly increasing
// cells — under each kernel tier this CPU has, the int16 and byte rungs
// also in segmented rows. Shared by the table test above and
// FuzzScoreWindow.
func checkWindow(t testing.TB, p Params, s []byte, w Rect, mask *triangle.Triangle) {
	t.Helper()
	for _, rung := range rowRungs() {
		restore := rung.force(t)
		checkWindowOnActiveTier(t, p, s, w, mask)
		restore()
	}
}

func checkWindowOnActiveTier(t testing.TB, p Params, s []byte, w Rect, mask *triangle.Triangle) {
	t.Helper()
	mtx := matrixWindow(new(Scratch), p, s, w, mask)
	bottom := new(Scratch).ScoreWindow(p, s, w, mask)
	naive := naiveWindow(p, s, w, mask)
	for x := 1; x <= w.W(); x++ {
		if naive[w.H()][x] != bottom[x-1] {
			t.Fatalf("window %+v masked=%v tier %s: bottom row col %d: score %d, naive %d",
				w, mask != nil, ActiveTier(), x, bottom[x-1], naive[w.H()][x])
		}
	}
	for y := 0; y <= w.H(); y++ {
		for x := 0; x <= w.W(); x++ {
			if mtx[y][x] != naive[y][x] {
				t.Fatalf("window %+v masked=%v tier %s: cell (%d,%d): kernel %d, naive %d",
					w, mask != nil, ActiveTier(), y, x, mtx[y][x], naive[y][x])
			}
		}
	}
	endX, score, _ := BestValidEnd(bottom, nil)
	if endX == 0 {
		return
	}
	a, err := tracebackWindow(new(Scratch), p, mtx, s, w, mask, endX)
	if err != nil {
		t.Fatalf("window %+v masked=%v: traceback: %v", w, mask != nil, err)
	}
	if a.Score != score || a.End() != (Pair{Y: w.H(), X: endX}) {
		t.Fatalf("window %+v: traceback score %d end %+v, want %d ending (%d,%d)",
			w, a.Score, a.End(), score, w.H(), endX)
	}
	for i, pr := range a.Pairs {
		if naive[pr.Y][pr.X] <= 0 || (mask != nil && mask.Get(w.Y0-1+pr.Y, w.X0-1+pr.X)) {
			t.Fatalf("window %+v: path pair %+v is zero or overridden", w, pr)
		}
		if i > 0 && (pr.Y <= a.Pairs[i-1].Y || pr.X <= a.Pairs[i-1].X) {
			t.Fatalf("window %+v: path not strictly increasing at %d: %+v", w, i, a.Pairs)
		}
	}
}

// naiveWindow is an O(HW(H+W)) reference implementation of the windowed
// recurrence with explicit gap minimisation.
func naiveWindow(p Params, s []byte, w Rect, tri *triangle.Triangle) [][]int32 {
	h, width := w.H(), w.W()
	m := make([][]int32, h+1)
	for y := range m {
		m[y] = make([]int32, width+1)
	}
	for y := 1; y <= h; y++ {
		gy := w.Y0 - 1 + y
		for x := 1; x <= width; x++ {
			gx := w.X0 - 1 + x
			if tri != nil && tri.Get(gy, gx) {
				m[y][x] = 0
				continue
			}
			best := m[y-1][x-1]
			for k := 1; x-1-k >= 0; k++ {
				if v := m[y-1][x-1-k] - p.Gap.Open - int32(k)*p.Gap.Ext; v > best {
					best = v
				}
			}
			for k := 1; y-1-k >= 0; k++ {
				if v := m[y-1-k][x-1] - p.Gap.Open - int32(k)*p.Gap.Ext; v > best {
					best = v
				}
			}
			v := best + p.Exch.Score(s[gy-1], s[gx-1])
			if v < 0 {
				v = 0
			}
			m[y][x] = v
		}
	}
	return m
}

// matrixWindow is the window's whole matrix, rows 0..H and columns
// 0..W (row and column 0 the zero boundary): one block from the zero
// boundary over every row. Cell (y, x) covers global pair
// (w.Y0-1+y, w.X0-1+x).
func matrixWindow(sc *Scratch, p Params, s []byte, w Rect, tri *triangle.Triangle) [][]int32 {
	return sc.matrix(p, s[w.Y0-1:w.Y1], s, w.X0-1, w.X1, tri, w.Y0-1, w.X0-1, 0, w.H(), nil, nil)
}

// tracebackWindow is the traceback body over a whole window matrix from
// matrixWindow; pairs are window-local.
func tracebackWindow(sc *Scratch, p Params, m [][]int32, s []byte, w Rect, tri *triangle.Triangle, endX int) (Alignment, error) {
	sc.src = tbSource{m: m}
	return sc.traceback(p, s[w.Y0-1:w.Y1], s[w.X0-1:w.X1], tri, w.Y0-1, w.X0-1, endX)
}

// TestTracebackWindowMatchesFull checks that the block traceback over
// the full split window, forced into blocks of a few rows, reconstructs
// the same pairs as the full traceback of the split's matrix.
func TestTracebackWindowMatchesFull(t *testing.T) {
	p := windowParams(t)
	s := seq.Tandem(seq.TandemSpec{UnitLen: 18, Copies: 4, FlankLen: 8,
		Profile: seq.DefaultDivergence, Seed: 3}).Codes
	m := len(s)
	r := m / 2
	w := Rect{Y0: 1, Y1: r, X0: r + 1, X1: m}
	tri := triangle.New(m) // no pair set: the window is clean, but the pass keeps checkpoints
	full := Matrix(p, s[:r], s[r:], nil, r)
	endX, score, _ := BestValidEnd(full[r][1:], nil)
	if endX == 0 {
		t.Skip("no positive alignment in this synthetic input")
	}
	wantA, err := Traceback(p, full, s[:r], s[r:], nil, r, endX)
	if err != nil {
		t.Fatalf("full traceback: %v", err)
	}
	for _, k := range []int{5, r} {
		defer setBlockRows(k)()
		sc := new(Scratch)
		sc.ScoreWindow(p, s, w, tri)
		gotA, err := sc.TracebackBlocks(p, s, w, tri, nil)
		if err != nil {
			t.Fatalf("k=%d: block traceback: %v", k, err)
		}
		if gotA.Score != wantA.Score || gotA.Score != score {
			t.Fatalf("k=%d: scores differ: blocks %d, full %d, row %d", k, gotA.Score, wantA.Score, score)
		}
		if len(gotA.Pairs) != len(wantA.Pairs) {
			t.Fatalf("k=%d: pair counts differ: blocks %d, full %d", k, len(gotA.Pairs), len(wantA.Pairs))
		}
		for i := range wantA.Pairs {
			// Full traceback pairs are split-local (Y in prefix, X in suffix);
			// window pairs are window-local. Both map to the same globals.
			wg := Pair{Y: wantA.Pairs[i].Y, X: r + wantA.Pairs[i].X}
			gg := Pair{Y: w.Y0 - 1 + gotA.Pairs[i].Y, X: w.X0 - 1 + gotA.Pairs[i].X}
			if wg != gg {
				t.Fatalf("k=%d: pair %d differs: blocks %+v, full %+v", k, i, gg, wg)
			}
		}
	}
}
