package align

import (
	"fmt"

	"repro/internal/triangle"
)

// Matrix computes the full alignment matrix (Gotoh recurrence, optional
// override masking) with rows 0..len(s1) and columns 0..len(s2); row and
// column 0 are the zero boundary. It is used only for tracebacks of
// accepted top alignments — score-only paths use the linear-memory
// kernels. tri may be nil.
func Matrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	return new(Scratch).Matrix(p, s1, s2, tri, r)
}

// Matrix is the scratch-based variant of the package-level Matrix: the
// returned matrix is arena-owned and valid until the next call on sc.
func (sc *Scratch) Matrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	return sc.matrix(p, s1, s2, 0, len(s2), tri, 0, r)
}

// matrix is the one full-matrix body; the operands, their offset
// (dy, dx) in global pair space and the tier choice are as for score.
// The vector tiers lay each arena row out as their row buffers are (a
// zero pad in front, columns rounded up to whole blocks) and compute it
// in place; the returned row headers cover boundary and columns only.
func (sc *Scratch) matrix(p Params, s1, h []byte, x0, x1 int, tri *triangle.Triangle, dy, dx int) [][]int32 {
	s2 := h[x0:x1]
	len1, len2 := len(s1), len(s2)
	tier := sc.rowTier(p, len1, len2)
	lead, cols := 0, len2
	switch tier {
	case TierInt16x16:
		lead, cols = 1, (len2+RowBlock-1)/RowBlock*RowBlock
	case TierInt32x8:
		lead, cols = 1, (len2+RowBlock/2-1)/(RowBlock/2)*(RowBlock/2)
	}
	stride := lead + 1 + cols
	if cap(sc.rows) < len1+1 {
		sc.rows = make([][]int32, len1+1)
	}
	m := sc.rows[:len1+1]
	if cap(sc.flat) < (len1+1)*stride {
		sc.flat = make([]int32, (len1+1)*stride)
	}
	flat := sc.flat[:(len1+1)*stride]
	for y := range m {
		row := flat[y*stride : (y+1)*stride]
		row[0], row[lead] = 0, 0 // zero pad and boundary column (arena may hold stale values)
		m[y] = row[lead : lead+1+len2 : lead+1+len2]
	}
	for x := range flat[:stride] {
		flat[x] = 0 // zero boundary row
	}
	switch tier {
	case TierInt16x16:
		sc.rows16(p, s1, h, x0, len2, tri, dy, dx, flat, stride, false)
		return m
	case TierInt32x8:
		sc.rows8(p, s1, h, x0, len2, tri, dy, dx, flat, stride)
		return m
	}
	maxY := growI32(&sc.maxY, len2+1)
	for i := range maxY {
		maxY[i] = negInf
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	for y := 1; y <= len1; y++ {
		gotohRow(m[y-1], m[y], maxY, p.Exch.Row(s1[y-1]), s2, open, ext, negInf)
		if tri != nil {
			zeroMasked(m[y][1:], tri, dy+y, dx+1)
		}
	}
	return m
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
	return sc.traceback(p, m, s1, s2, tri, 0, r, endX)
}

// traceback is the one traceback body; (dy, dx) is the operands' offset
// in global pair space, as for score. Returned pairs are operand-local.
func (sc *Scratch) traceback(p Params, m [][]int32, s1, s2 []byte, tri *triangle.Triangle, dy, dx, endX int) (Alignment, error) {
	len1 := len(s1)
	if len1 == 0 || endX < 1 || endX > len(s2) {
		return Alignment{}, fmt.Errorf("align: traceback end column %d out of range", endX)
	}
	y, x := len1, endX
	score := m[y][x]
	if score <= 0 {
		return Alignment{}, fmt.Errorf("align: traceback from non-positive cell (%d,%d)=%d", y, x, score)
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	rev := sc.rev[:0]
	for {
		v := m[y][x]
		rev = append(rev, Pair{Y: y, X: x})
		if tri != nil && tri.Get(dy+y, dx+x) {
			return Alignment{}, fmt.Errorf("align: traceback crossed overridden pair (%d,%d)", dy+y, dx+x)
		}
		best := v - p.Exch.Score(s1[y-1], s2[x-1])
		if best == 0 {
			break // fresh local start
		}
		// diagonal predecessor
		if m[y-1][x-1] == best {
			y, x = y-1, x-1
			if y == 0 || x == 0 {
				break
			}
			if m[y][x] == 0 {
				break
			}
			continue
		}
		// horizontal gap of length k
		moved := false
		for k := 1; x-1-k >= 0; k++ {
			if m[y-1][x-1-k]-open-int32(k)*ext == best && m[y-1][x-1-k] > 0 {
				y, x = y-1, x-1-k
				moved = true
				break
			}
		}
		if !moved {
			// vertical gap of length k
			for k := 1; y-1-k >= 0; k++ {
				if m[y-1-k][x-1]-open-int32(k)*ext == best && m[y-1-k][x-1] > 0 {
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
