package align

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/triangle"
)

// Traceback in row blocks. A masked score pass saves its state every k
// rows — the row's cells and the column gap maxima the row below starts
// from — and keeps the bottom row. The traceback of an accepted window
// takes its end column from that bottom row and walks the path back up
// through blocks of k rows, each recomputed from the checkpoint above
// it, over the columns up to the path's column where it enters the block
// only: a cell reads only the row above at its own column and cells to
// its left, and the path only moves up and left. Only the blocks the
// path reaches are recomputed, so the full-window matrix is never built.

// blockRowsOverride, when positive, replaces blockRows' rule: the block
// traceback's tests force blocks of a few rows.
var blockRowsOverride int

// blockRows is the height k of the row blocks of an h x w window: one
// block is about a megabyte of int32 cells (2^18/w rows) and at least
// 32 rows, and k is at least sqrt(2h), where the checkpoints (two int32
// rows every k rows) cost what one block does, so a window as wide as
// the whole sequence keeps O(w·sqrt(h)) cells instead of h·w.
func blockRows(h, w int) int {
	if blockRowsOverride > 0 {
		return blockRowsOverride
	}
	return max(32, (1<<18)/max(w, 1), int(math.Sqrt(float64(2*h))))
}

// checkpoints are the states the last masked score pass on a Scratch
// saved, with a tag naming that pass: the scoring model, the operands'
// residues and offset, and the triangle it was masked by as it stood —
// the pointer, which a Clone does not share, and its Count, which every
// Set raises. A masked pass clears the tag before it overwrites the
// checkpoints and sets it when it ends; an unmasked pass, which keeps
// none and writes none of them, leaves it as it is.
type checkpoints struct {
	tri    *triangle.Triangle // nil: the tag names no pass
	count  int                // tri.Count() when the pass ran
	p      Params
	s1, s2 []byte // copies of the operands' residues
	dy, dx int

	h, n   int     // the pass's rows and columns
	k      int     // a checkpoint every k rows: rows k, 2k, ... below h
	cells  []int32 // checkpoint c (row c*k) at [(c-1)*n, c*n)
	maxY   []int32 // the column gap maxima row c*k+1 starts from, likewise
	bottom []int32 // the pass's bottom row

	// A pass in segmented rows keeps its checkpoints from segFrom on as
	// it holds its rows, segs > 0 vectors of 16 int16 each, in cells16
	// and maxY16 (those before segFrom, which a byte pass kept before it
	// handed over, are in cells and maxY); a block reads a checkpoint's
	// columns out of them (state) into top and topMaxY.
	segs, segFrom   int
	cells16, maxY16 []int16
	top, topMaxY    []int32
}

// start begins a score pass of s1 against n columns at row offset dy:
// when the pass is masked, the tag is cleared and the buffers are sized
// for its checkpoints.
func (ck *checkpoints) start(s1 []byte, n int, tri *triangle.Triangle, dy int) {
	if tri == nil {
		return
	}
	ck.tri = nil
	ck.h, ck.n, ck.dy, ck.segs = len(s1), n, dy, 0
	ck.k = blockRows(ck.h, n)
	c := max(0, (ck.h-1)/ck.k)
	growI32(&ck.cells, c*n)
	growI32(&ck.maxY, c*n)
}

// finish tags the checkpoints with the masked pass that saved them and
// keeps its bottom row.
func (ck *checkpoints) finish(p Params, s1, s2 []byte, tri *triangle.Triangle, dx int, bottom []int32) {
	ck.tri, ck.count, ck.p, ck.dx = tri, tri.Count(), p, dx
	ck.s1 = append(ck.s1[:0], s1...)
	ck.s2 = append(ck.s2[:0], s2...)
	ck.bottom = append(ck.bottom[:0], bottom...)
}

// describes reports whether the checkpoints are those of a masked pass
// over s1 against s2 at (dy, dx) under p, against tri as it stands.
func (ck *checkpoints) describes(p Params, s1, s2 []byte, dy, dx int, tri *triangle.Triangle) bool {
	return ck.tri != nil && ck.tri == tri && ck.count == tri.Count() && ck.p == p &&
		ck.dy == dy && ck.dx == dx && bytes.Equal(ck.s1, s1) && bytes.Equal(ck.s2, s2)
}

// keepRow saves the state of a masked pass that has just computed
// global row y — the row's cells and the column gap maxima the next row
// starts from — when y is a checkpoint row of the pass.
func keepRow[T uint8 | int16 | int32](ck *checkpoints, y int, cells, maxY []T) {
	if c, ok := ck.index(y); ok {
		at := c * ck.n
		widen(ck.cells[at:at+ck.n], cells)
		widen(ck.maxY[at:at+ck.n], maxY)
	}
}

// keepSegs is keepRow for a pass in segmented rows (segs vectors a row),
// which keeps the state as it stands.
func (ck *checkpoints) keepSegs(y, segs int, cells, maxY []int16) {
	c, ok := ck.index(y)
	if !ok {
		return
	}
	size := segs * RowBlock
	if ck.segs != segs {
		ck.segs, ck.segFrom = segs, c
		n := max(0, (ck.h-1)/ck.k) * size
		growI16(&ck.cells16, n)
		growI16(&ck.maxY16, n)
	}
	copy(ck.cells16[c*size:], cells[:size])
	copy(ck.maxY16[c*size:], maxY[:size])
}

// index reports which checkpoint global row y is, counting from 0, and
// whether it is one.
func (ck *checkpoints) index(y int) (c int, ok bool) {
	y -= ck.dy
	if y%ck.k != 0 || y >= ck.h {
		return 0, false
	}
	return y/ck.k - 1, true
}

// state returns checkpoint c's cells and column gap maxima (c >= 1,
// counting the zero boundary as 0), n columns of each, in column order.
func (ck *checkpoints) state(c, n int) (cells, maxY []int32) {
	if ck.segs == 0 || c-1 < ck.segFrom {
		at := (c - 1) * ck.n
		return ck.cells[at : at+n], ck.maxY[at : at+n]
	}
	size := ck.segs * RowBlock
	at := (c - 1) * size
	cells, maxY = growI32(&ck.top, n), growI32(&ck.topMaxY, n)
	unstripe(cells, ck.cells16[at:at+size], ck.segs)
	unstripe(maxY, ck.maxY16[at:at+size], ck.segs)
	return cells, maxY
}

// widen copies a row state into a wider lane type. A byte state widens
// as it is, clamped gap maxima included: a clamped 0 stands for any
// value <= 0 in every rung (handOver).
func widen[D int16 | int32, S uint8 | int16 | int32](dst []D, src []S) {
	for i := range dst {
		dst[i] = D(src[i])
	}
}

// tbSource is what traceback reads a matrix's rows through: rows
// y0..y0+len(m)-1 at hand, and what it takes to recompute another block
// of k rows from the checkpoints — k = 0 when m is the whole matrix.
type tbSource struct {
	m      [][]int32
	y0, k  int
	p      Params
	s1, h  []byte
	x0     int // the window's columns start at h[x0]
	tri    *triangle.Triangle
	dy, dx int
	blocks int // blocks computed
}

// rowPair returns rows y and y-1 up to column x at least, recomputing
// the block that holds both — rows (b*k, b*k+k] and the checkpoint row
// above them — when it is not the one at hand.
func (sc *Scratch) rowPair(y, x int) (cur, up []int32) {
	src := &sc.src
	if src.k > 0 && (y-1)/src.k*src.k != src.y0 {
		sc.loadBlock((y-1)/src.k, x)
	}
	return src.m[y-src.y0], src.m[y-1-src.y0]
}

// rowAt returns row y, at or above the rows at hand, up to column x at
// least. A vertical gap is scanned upwards, and the path carries on from
// the row the scan stops at, so a row above the block at hand is served
// by the block that holds it together with the row above it, which is
// the one the path needs next.
func (sc *Scratch) rowAt(y, x int) []int32 {
	src := &sc.src
	if y < src.y0 {
		sc.loadBlock(max(y-1, 0)/src.k, x)
	}
	return src.m[y-src.y0]
}

// loadBlock recomputes block b — rows b*k..min(b*k+k, h), starting from
// checkpoint b (the zero boundary for b = 0) — over columns 1..n.
func (sc *Scratch) loadBlock(b, n int) {
	src := &sc.src
	y0, y1 := b*src.k, min(b*src.k+src.k, len(src.s1))
	var top, maxY []int32
	if b > 0 {
		top, maxY = sc.ck.state(b, n)
	}
	src.m = sc.matrix(src.p, src.s1, src.h, src.x0, src.x0+n, src.tri, src.dy, src.dx, y0, y1, top, maxY)
	src.y0 = y0
	src.blocks++
}

// NeedsPass reports whether TracebackBlocks over window w of s against
// tri needs a masked pass over w against tri first (ScoreWindow or
// ScoreWindowWide): w is taller than one block, and the last masked pass
// on sc was another one or tri has changed since.
func (sc *Scratch) NeedsPass(p Params, s []byte, w Rect, tri *triangle.Triangle) bool {
	s1, s2 := s[w.Y0-1:w.Y1], s[w.X0-1:w.X1]
	return len(s1) > blockRows(len(s1), len(s2)) && !sc.ck.describes(p, s1, s2, w.Y0-1, w.X0-1, tri)
}

// TracebackBlocks reconstructs the best valid alignment of window w of
// s masked by tri: the end column is the best valid ending of the
// window's masked bottom row after shadow rejection against orig, the
// window's original row (BestValidEnd), and the path is traced back from
// it through blocks of rows, each recomputed from a checkpoint over the
// columns up to the path's, and only as far up as the path goes. A
// window no taller than one block is computed whole from the zero
// boundary, with nothing needed beforehand; a taller one reads the
// checkpoints and the bottom row of the masked pass over w against tri
// as it stands, which must have been sc's last masked pass (NeedsPass).
// Pairs are window-local: callers map (Y, X) to global positions
// (w.Y0-1+Y, w.X0-1+X). Blocks reports how many blocks were computed.
// No full-window matrix is allocated.
func (sc *Scratch) TracebackBlocks(p Params, s []byte, w Rect, tri *triangle.Triangle, orig []int32) (Alignment, error) {
	s1, s2 := s[w.Y0-1:w.Y1], s[w.X0-1:w.X1]
	dy, dx := w.Y0-1, w.X0-1
	src := &sc.src
	*src = tbSource{y0: -1, p: p, s1: s1, h: s, x0: dx, tri: tri, dy: dy, dx: dx}
	var bottom []int32
	switch {
	case len(s1) <= blockRows(len(s1), len(s2)):
		src.m = sc.matrix(p, s1, s, dx, w.X1, tri, dy, dx, 0, len(s1), nil, nil)
		src.y0, src.blocks = 0, 1
		bottom = src.m[len(s1)][1:]
	case sc.ck.describes(p, s1, s2, dy, dx, tri):
		bottom, src.k = sc.ck.bottom, sc.ck.k
	default:
		return Alignment{}, fmt.Errorf("align: window %+v has no checkpoints against this triangle", w)
	}
	endX, score, _ := BestValidEnd(bottom, orig)
	if endX == 0 || score <= 0 {
		return Alignment{}, fmt.Errorf("align: window %+v has no valid alignment end", w)
	}
	return sc.traceback(p, s1, s2, tri, dy, dx, endX)
}

// Blocks reports how many row blocks the last TracebackBlocks computed.
func (sc *Scratch) Blocks() int { return sc.src.blocks }
