package align

import (
	"math"

	"repro/internal/triangle"
)

// Score computes the local alignment matrix of s1 (vertical) against s2
// (horizontal) in linear memory and returns the bottom row
// M[len(s1)][1..len(s2)]. The caller owns the returned slice.
//
// Per the bottom-row sufficiency argument of Appendix A, the top-alignment
// search only ever needs this row: its maximum is the split's score.
//
// Hot paths should reuse a Scratch ((*Scratch).Score and friends): the
// package-level functions allocate fresh buffers on every call.
func Score(p Params, s1, s2 []byte) []int32 {
	return new(Scratch).Score(p, s1, s2)
}

// ScoreMasked is Score with override masking: cells whose global residue
// pair (y, r+x) is marked in tri are forced to zero (the paper's
// "overriding zeros"), where r is the split position of this matrix.
func ScoreMasked(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	return new(Scratch).ScoreMasked(p, s1, s2, tri, r)
}

// score is the one linear-memory forward body: every score-only entry
// point except the striped kernel is a wrapper over it. The horizontal
// operand is h[x0:x1] — a window passes the whole sequence and its column
// range, so that one query profile serves every window of a run. The
// operands sit at offset (dy, dx) in global pair space — local cell
// (y, x) is the pair (dy+y, dx+x) — which only the override mask needs
// to know: a split r is (0, r), a window (Y0-1, X0-1). tri == nil
// disables masking. The rows run on the tier RowTier names, or first on
// the byte rung when byteOK and the model and the active tier admit it:
// at the first row holding a cell at the byte rung's flag level the pass
// hands over to the int16 rung, which computes that row again and the
// rows below it, and the flagged row's cells are counted as wasted
// (Scratch.Wasted). On the int16 rung a window segWidth columns wide or
// more runs in segmented rows (rowsSegs), a narrower one on the row scan
// (rows16). The tier that served the call is recorded for Scratch.Tier:
// int16x16 for a pass that handed over. A masked pass keeps checkpoints
// for the block traceback (TracebackBlocks). All working memory comes
// from the receiver; the returned bottom row is arena-owned.
func (sc *Scratch) score(p Params, s1, h []byte, x0, x1 int, tri *triangle.Triangle, dy, dx int, byteOK bool) []int32 {
	sc.ck.start(s1, x1-x0, tri, dy)
	bottom := sc.pass(p, s1, h, x0, x1, tri, dy, dx, byteOK)
	if tri != nil {
		sc.ck.finish(p, s1, h[x0:x1], tri, dx, bottom)
	}
	return bottom
}

// pass is score's row loop, on the rungs it names.
func (sc *Scratch) pass(p Params, s1, h []byte, x0, x1 int, tri *triangle.Triangle, dy, dx int, byteOK bool) []int32 {
	s2 := h[x0:x1]
	len1, len2 := len(s1), len(s2)
	bottom := growI32(&sc.bottom, len2)
	tier := sc.rowTier(p, len1, len2)
	sc.wasted = 0
	resume := false
	if byteOK && len1 > 0 && sc.model.byteRung(len1, len2) {
		row, flagged := sc.rowsU8(p, s1, h, x0, len2, tri, dy, dx)
		if flagged == 0 {
			sc.tier = TierU8x32
			for i, v := range row[2 : 2+len2] {
				bottom[i] = int32(v)
			}
			return bottom
		}
		s1, dy, resume = s1[flagged-1:], dy+flagged-1, true
		sc.wasted = Cells(1, len2)
	}
	switch tier {
	case TierInt16x16:
		if segmentedRows(len2) {
			if resume {
				sc.handOverSegs(len2)
			}
			sc.rowsSegs(p, s1, h, x0, len2, tri, dy, dx, resume, bottom)
			return bottom
		}
		if resume {
			sc.handOver(len2)
		}
		for i, v := range sc.rows16(p, s1, h, x0, len2, tri, dy, dx, nil, 0, resume)[2 : 2+len2] {
			bottom[i] = int32(v)
		}
		return bottom
	case TierInt32x8:
		copy(bottom, sc.rows8(p, s1, h, x0, len2, tri, dy, dx, nil, 0, false)[2:])
		return bottom
	}
	prev := growI32(&sc.prev, len2+1) // M[y-1][*]
	cur := growI32(&sc.cur, len2+1)   // M[y][*]
	maxY := growI32(&sc.maxY, len2+1) // column gap running maxima
	for i := range prev {
		prev[i] = 0
		maxY[i] = negInf
	}
	open, ext := p.Gap.Open, p.Gap.Ext

	for y := 1; y <= len1; y++ {
		cur[0] = 0
		gotohRow(prev, cur, maxY, p.Exch.Row(s1[y-1]), s2, open, ext, negInf)
		prev, cur = cur, prev
		if tri != nil {
			zeroMasked(prev[1:], tri, dy+y, dx+1)
			keepRow(&sc.ck, dy+y, prev[1:], maxY[1:])
		}
	}
	sc.prev, sc.cur = prev, cur // keep the swap so reuse stays coherent
	copy(bottom, prev[1:])
	return bottom
}

// gotohRow computes cells 1..len(s2) of one matrix row of the Figure 3
// recurrence into cur, from the row above (prev) and the running column
// gap maxima maxY, which it advances. exch is the exchange row of this
// row's vertical residue. prev, cur and maxY hold len(s2)+1 entries;
// entry 0 is the caller's boundary. maxX is the horizontal running
// maximum coming in from the left — negInf at a matrix edge, the carry of
// the stripe to the left otherwise — and the return value is what it
// hands on to the right. The row is computed unmasked: a cell reads only
// the row above, so the override zeros are zeroMasked's pass afterwards.
func gotohRow(prev, cur, maxY []int32, exch []int16, s2 []byte, open, ext, maxX int32) int32 {
	n := len(s2)
	prev, cur, maxY = prev[:n], cur[1:n+1], maxY[1:n+1] // all indexed by x-1
	for i, c := range s2 {
		d := prev[i]
		my := maxY[i]
		best := d
		if maxX > best {
			best = maxX
		}
		if my > best {
			best = my
		}
		v := best + int32(exch[c])
		if v < 0 {
			v = 0
		}
		cur[i] = v
		g := d - open
		h := g
		if maxX > h {
			h = maxX
		}
		maxX = h - ext
		if my > g {
			g = my
		}
		maxY[i] = g - ext
	}
	return maxX
}

// Cells returns the number of matrix entries a score computation over
// these operand lengths touches (used by the instrumentation and the
// discrete-event cost model). Non-positive operand lengths contribute no
// cells, so malformed inputs cannot produce a negative count, and the
// product saturates at MaxInt64 rather than wrapping for absurd lengths.
func Cells(len1, len2 int) int64 {
	if len1 <= 0 || len2 <= 0 {
		return 0
	}
	if int64(len1) > math.MaxInt64/int64(len2) {
		return math.MaxInt64
	}
	return int64(len1) * int64(len2)
}
