package align

import (
	"fmt"

	"repro/internal/triangle"
)

// Matrix computes the full alignment matrix (Gotoh recurrence, optional
// override masking) with rows 0..len(s1) and columns 0..len(s2); row and
// column 0 are the zero boundary. Score-only paths use the linear-memory
// kernels, and the engine's tracebacks recompute row blocks
// (TracebackBlocks); this is the whole matrix at once, for the
// baselines and the tests. tri may be nil.
func Matrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	return new(Scratch).Matrix(p, s1, s2, tri, r)
}

// Matrix is the scratch-based variant of the package-level Matrix: the
// returned matrix is arena-owned and valid until the next call on sc.
func (sc *Scratch) Matrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	return sc.matrix(p, s1, s2, 0, len(s2), tri, 0, r, 0, len(s1), nil, nil)
}

// matrix is the one matrix body: it computes rows y0..y1 of the matrix
// of s1 against columns h[x0:x1] into the arena and returns their row
// headers, row y0 first; the operands, their offset (dy, dx) in global
// pair space and the tier choice are as for score, the tier chosen for
// all of s1, which bounds every cell. top and maxY are the state at row
// y0 as a checkpoint holds it — the row's cells from column 1 and the
// column gap maxima the row below starts from, at least x1-x0 of each —
// or nil for the zero boundary, y0 = 0. Matrix is one call from the
// zero boundary, a traceback block one call from its checkpoint. The
// vector tiers lay each arena row out as their row buffers are (a zero
// pad in front, columns rounded up to whole blocks) and compute it in
// place; the returned row headers cover boundary and columns only.
func (sc *Scratch) matrix(p Params, s1, h []byte, x0, x1 int, tri *triangle.Triangle, dy, dx, y0, y1 int, top, maxY []int32) [][]int32 {
	s2 := h[x0:x1]
	len2, rows := len(s2), y1-y0
	tier := sc.rowTier(p, len(s1), len2)
	lead, cols := 0, len2
	switch tier {
	case TierInt16x16:
		lead, cols = 1, (len2+RowBlock-1)/RowBlock*RowBlock
	case TierInt32x8:
		lead, cols = 1, (len2+RowBlock/2-1)/(RowBlock/2)*(RowBlock/2)
	}
	stride := lead + 1 + cols
	if cap(sc.rows) < rows+1 {
		sc.rows = make([][]int32, rows+1)
	}
	m := sc.rows[:rows+1]
	if cap(sc.flat) < (rows+1)*stride {
		sc.flat = make([]int32, (rows+1)*stride)
	}
	flat := sc.flat[:(rows+1)*stride]
	for y := range m {
		row := flat[y*stride : (y+1)*stride]
		row[0], row[lead] = 0, 0 // zero pad and boundary column (arena may hold stale values)
		m[y] = row[lead : lead+1+len2 : lead+1+len2]
	}
	clear(flat[:stride])
	if top != nil {
		copy(m[0][1:], top)
	}
	s1, dy = s1[y0:y1], dy+y0
	switch tier {
	case TierInt16x16:
		if top != nil {
			sc.load16(top, maxY, len2)
		}
		sc.rows16(p, s1, h, x0, len2, tri, dy, dx, flat, stride, top != nil)
		return m
	case TierInt32x8:
		if top != nil {
			copy(sc.gapMaxima32(len2, RowBlock/2), maxY[:len2])
		}
		sc.rows8(p, s1, h, x0, len2, tri, dy, dx, flat, stride, top != nil)
		return m
	}
	mY := sc.gapMaxima32(len2+1, 1)
	if top != nil {
		copy(mY[1:], maxY[:len2])
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	for y := 1; y <= rows; y++ {
		gotohRow(m[y-1], m[y], mY, p.Exch.Row(s1[y-1]), s2, open, ext, negInf)
		if tri != nil {
			zeroMasked(m[y][1:], tri, dy+y, dx+1)
		}
	}
	return m
}

// gapMaxima32 returns sc's int32 column gap maxima for n columns,
// rounded up to whole blocks of the given width, all negInf.
func (sc *Scratch) gapMaxima32(n, block int) []int32 {
	maxY := growI32(&sc.maxY, (n+block-1)/block*block)
	for i := range maxY {
		maxY[i] = negInf
	}
	return maxY
}

// Traceback reconstructs the alignment ending at bottom-row column endX
// (1-based) from a full matrix produced by Matrix (or NaiveMatrix) with
// the same parameters and mask. It returns the matched pairs in path
// order. The end cell must be positive.
//
// Predecessors are rediscovered from the stored M values: the diagonal
// first, then horizontal gaps by increasing length, then vertical gaps —
// a deterministic tie order, so equal-scoring reconstructions are stable.
func Traceback(p Params, m [][]int32, s1, s2 []byte, tri *triangle.Triangle, r, endX int) (Alignment, error) {
	return new(Scratch).Traceback(p, m, s1, s2, tri, r, endX)
}

// Traceback is the scratch-based variant of the package-level Traceback.
// The returned Alignment's pair slice is freshly allocated (it outlives
// the call as part of a TopAlignment); only the path accumulator is
// arena-reused.
func (sc *Scratch) Traceback(p Params, m [][]int32, s1, s2 []byte, tri *triangle.Triangle, r, endX int) (Alignment, error) {
	sc.src = tbSource{m: m}
	a, err := sc.traceback(p, s1, s2, tri, 0, r, endX)
	sc.src.m = nil
	return a, err
}

// traceback is the one traceback body, over the rows sc.src serves: a
// whole matrix, or blocks recomputed from checkpoints as the path climbs
// (TracebackBlocks). (dy, dx) is the operands' offset in global pair
// space, as for score. Returned pairs are operand-local.
func (sc *Scratch) traceback(p Params, s1, s2 []byte, tri *triangle.Triangle, dy, dx, endX int) (Alignment, error) {
	len1 := len(s1)
	if len1 == 0 || endX < 1 || endX > len(s2) {
		return Alignment{}, fmt.Errorf("align: traceback end column %d out of range", endX)
	}
	y, x := len1, endX
	cur, _ := sc.rowPair(y, x)
	score := cur[x]
	if score <= 0 {
		return Alignment{}, fmt.Errorf("align: traceback from non-positive cell (%d,%d)=%d", y, x, score)
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	rev := sc.rev[:0]
	for {
		cur, up := sc.rowPair(y, x)
		v := cur[x]
		rev = append(rev, Pair{Y: y, X: x})
		if tri != nil && tri.Get(dy+y, dx+x) {
			return Alignment{}, fmt.Errorf("align: traceback crossed overridden pair (%d,%d)", dy+y, dx+x)
		}
		best := v - p.Exch.Score(s1[y-1], s2[x-1])
		if best == 0 {
			break // fresh local start
		}
		// diagonal predecessor
		if up[x-1] == best {
			y, x = y-1, x-1
			if y == 0 || x == 0 || up[x] == 0 {
				break
			}
			continue
		}
		// horizontal gap of length k
		moved := false
		for k := 1; x-1-k >= 0; k++ {
			if c := up[x-1-k]; c-open-int32(k)*ext == best && c > 0 {
				y, x = y-1, x-1-k
				moved = true
				break
			}
		}
		if !moved {
			// vertical gap of length k
			for k := 1; y-1-k >= 0; k++ {
				if c := sc.rowAt(y-1-k, x)[x-1]; c-open-int32(k)*ext == best && c > 0 {
					y, x = y-1-k, x-1
					moved = true
					break
				}
			}
		}
		if !moved {
			return Alignment{}, fmt.Errorf("align: no predecessor found at (%d,%d)=%d", y, x, v)
		}
	}
	sc.rev = rev // keep the grown accumulator for reuse
	// reverse into path order
	pairs := make([]Pair, len(rev))
	for i, pr := range rev {
		pairs[len(rev)-1-i] = pr
	}
	return Alignment{Score: score, Pairs: pairs}, nil
}

// BestValidEnd returns the 1-based column of the maximum entry in bottom
// among the valid ending positions, together with that score. When orig
// is non-nil (a realignment), a column is valid only if its value equals
// the original first-alignment value — the shadow-rejection rule of
// Appendix A. Rejected counts the positive cells skipped as shadows.
// If no valid positive cell exists, endX is 0 and score 0.
func BestValidEnd(bottom, orig []int32) (endX int, score int32, rejected int64) {
	if orig == nil {
		for i, v := range bottom {
			if v > score {
				score, endX = v, i+1
			}
		}
		return endX, score, 0
	}
	orig = orig[:len(bottom)]
	for i, v := range bottom {
		if v != orig[i] {
			if v > 0 {
				rejected++
			}
			continue
		}
		if v > score {
			score, endX = v, i+1
		}
	}
	return endX, score, rejected
}
