package align

import "repro/internal/triangle"

// DefaultStripeWidth is sized so that the stripe's working set (current
// row section, MaxY section, and exchange row) stays within a third of a
// typical 32 KiB L1 data cache, per Section 4.1 of the paper ("we compute
// a section of the row that fits in a third of the first-level cache").
const DefaultStripeWidth = 2048

// ScoreStriped computes the same bottom row as ScoreMasked but walks the
// matrix in vertical stripes of the given width: all rows of a stripe of
// columns are computed before moving to the next stripe. The per-stripe
// working set fits in first-level cache, which is the paper's
// cache-awareness optimisation. Boundary state (the diagonal value and
// the horizontal-gap running maximum at the stripe's left edge) is
// carried between stripes in O(len(s1)) memory.
//
// width <= 0 selects DefaultStripeWidth. tri may be nil.
func ScoreStriped(p Params, s1, s2 []byte, tri *triangle.Triangle, r, width int) []int32 {
	return new(Scratch).ScoreStriped(p, s1, s2, tri, r, width)
}

// ScoreStriped is the scratch-based variant of the package-level
// ScoreStriped: the returned row is arena-owned and valid until the next
// call on sc.
func (sc *Scratch) ScoreStriped(p Params, s1, s2 []byte, tri *triangle.Triangle, r, width int) []int32 {
	if width <= 0 {
		width = DefaultStripeWidth
	}
	len1, len2 := len(s1), len(s2)
	if len1 == 0 || len2 == 0 {
		bottom := growI32(&sc.bottom, len2)
		for i := range bottom {
			bottom[i] = 0
		}
		return bottom
	}
	if len2 <= width {
		return sc.ScoreMasked(p, s1, s2, tri, r)
	}
	bottom := growI32(&sc.bottom, len2)

	open, ext := p.Gap.Open, p.Gap.Ext

	// Carried across stripes, indexed by row y (1-based):
	//   edgeM[y]    = M[y][x0-1], the column just left of the next stripe
	//   edgeMaxX[y] = the horizontal running maximum after processing
	//                 column x0-1 of row y
	edgeM := growI32(&sc.edgeM, len1+1)
	edgeMaxX := growI32(&sc.edgeMaxX, len1+1)
	for y := range edgeM {
		edgeM[y] = 0
		edgeMaxX[y] = negInf
	}

	prev := growI32(&sc.prev, width+1)
	cur := growI32(&sc.cur, width+1)
	maxY := growI32(&sc.maxY, width+1)

	for x0 := 1; x0 <= len2; x0 += width {
		x1 := x0 + width - 1
		if x1 > len2 {
			x1 = len2
		}
		w := x1 - x0 + 1
		for i := 0; i <= w; i++ {
			prev[i] = 0
			maxY[i] = negInf
		}
		for y := 1; y <= len1; y++ {
			prev[0] = edgeM[y-1] // M[y-1][x0-1], the diagonal of the stripe's first cell
			edgeMaxX[y] = gotohRow(prev, cur, maxY, p.Exch.Row(s1[y-1]), s2[x0-1:x1], open, ext, edgeMaxX[y])
			if tri != nil {
				zeroMasked(cur[1:w+1], tri, y, r+x0)
			}
			edgeM[y-1] = prev[w] // the stripe's right edge, for the next stripe
			prev, cur = cur, prev
		}
		copy(bottom[x0-1:x1], prev[1:w+1])
	}
	sc.prev, sc.cur = prev, cur
	return bottom
}
