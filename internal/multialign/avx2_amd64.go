//go:build amd64

package multialign

import (
	"repro/internal/align"
	"repro/internal/triangle"
)

// rowAVX8 (avx2_amd64.s) advances one matrix row over a span of n
// columns of the 8-lane interleaved Gotoh recurrence: for each column it
// computes v = clamp0(max(d, mx, maxY) + e), stores it, and updates the
// running gap maxima mx and maxY. prev points at the lane block of the
// column before the span's first, cur and maxY at the span's first
// column, ex at its exchange value. mx is the 8-lane horizontal-gap
// running maximum, carried in and out.
//
//go:noescape
func rowAVX8(prev, cur, maxY, ex *int32, n int, open, ext int32, mx *int32)

// rowAVX16 is the 16-lane saturating int16 analogue of rowAVX8; lanes
// reaching satLimit16 OR their byte mask into *sat. rowAVX16Fast is the
// same loop without saturation tracking, for groups Int16Proven cleared.
//
//go:noescape
func rowAVX16(prev, cur, maxY, ex *int16, n int, open, ext int16, mx *int16, sat *uint32)

//go:noescape
func rowAVX16Fast(prev, cur, maxY, ex *int16, n int, open, ext int16, mx *int16)

// rowAVX16Pair advances TWO matrix rows (y, y+1) in one column sweep:
// row y's cells stay in registers and feed row y+1's diagonal, and row
// y+1 is written in place over row y-1 in buffer a, halving the row
// traffic that bounds the single-row kernel. d and v are 16-lane carry
// blocks holding the row y-1 and row y values of the column before the
// span, carried out as those of its last column so the next span
// resumes there. rowAVX16PairFast drops saturation tracking.
//
//go:noescape
func rowAVX16Pair(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16, sat *uint32)

//go:noescape
func rowAVX16PairFast(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16)

// The two group drivers below are the same five steps per matrix row:
// look up the row's query-profile slice, run the assembly over columns
// 1..n in one call, re-zero the left border, zero the overridden columns,
// capture the bottom row of the lane whose matrix ends here. The assembly
// knows neither border nor mask, and need not: the diagonal and both gap
// chains read only the row above, already repaired, so the cells it gets
// wrong in this row are put right before anything reads them (the same
// post-pass align.zeroMasked is for the row kernels). avx16's two-row
// sweeps are the one place a row is read before its post-pass, so they
// repair the first row's border and mask where the second row reads them.

// zeroBorder re-zeroes the boundary cells of an interleaved row of n
// columns: lane k's matrix starts at column k+1, so at columns
// c < lanes the lanes k >= c lie on or left of their boundary column.
func zeroBorder[T int16 | int32](row []T, lanes, n int) {
	for c := 1; c < lanes && c <= n; c++ {
		b := row[lanes*c : lanes*(c+1)]
		for k := c; k < lanes; k++ {
			b[k] = 0
		}
	}
}

// maskHit returns the first overridden global column of row y among the
// n columns of the group at r0 — column c is the pair (y, r0+c) — or -1
// when the row is clean or tri is nil. For lanes k > 0 the rows y > r0
// begin left of the diagonal (r0+c <= y), where the triangle holds
// nothing and the cells are border or past the lane's bottom row anyway.
func maskHit(tri *triangle.Triangle, y, r0, n int) int {
	if tri == nil {
		return -1
	}
	return tri.NextSet(y, r0+1, r0+n+1)
}

// zeroMasked clears the lane block of every overridden column of a
// computed row, from the first hit maskHit found (the group's columns run
// to the sequence end, so the rest of triangle row y is its range): an
// overridden pair is the same cell of every lane's matrix.
func zeroMasked[T int16 | int32](row []T, lanes int, tri *triangle.Triangle, y, r0, hit int) {
	for j := hit; j >= 0; j = tri.NextSet(y, j+1, tri.M()+1) {
		c := j - r0
		clear(row[lanes*c : lanes*(c+1)])
	}
}

// avx8 is the 8-lane AVX2 kernel body: exact int32 lanes, 8 per ymm
// register, interleaved per column as in Figure 7. bots holds the
// destination bottom rows: bots[k] receives split r0+k's row (nil lanes
// are skipped).
func (sc *Scratch) avx8(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := growI32(&sc.prev, 8*(n+1))
	cur := growI32(&sc.cur, 8*(n+1))
	maxY := growI32(&sc.maxY, 8*(n+1))
	for i := range prev {
		prev[i] = 0 // zero boundary row (arena may hold stale values)
		maxY[i] = negInf
	}
	for i := 0; i < 8; i++ {
		cur[i] = 0 // becomes the boundary column block after the swap
	}

	// Query profile (Farrar-style): prof[a][c] = Score(a, s[r0+c-1]),
	// built lazily for the distinct residues of s[:yMax] so each row is
	// one slice lookup instead of n exchange lookups. It is int32 because
	// the assembly broadcasts 32-bit exchange values.
	maxCode := 0
	for _, b := range s {
		if int(b) > maxCode {
			maxCode = int(b)
		}
	}
	alpha := maxCode + 1
	prof := growI32(&sc.prof, alpha*(n+1))
	built := growBool(&sc.profBuilt, alpha)
	for i := range built {
		built[i] = false
	}
	suf := s[r0:]

	open, ext := p.Gap.Open, p.Gap.Ext
	yMax := r0 + 7
	if yMax > m-1 {
		yMax = m - 1
	}
	var mx [8]int32
	for y := 1; y <= yMax; y++ {
		ch := s[y-1]
		ex := prof[int(ch)*(n+1) : (int(ch)+1)*(n+1)]
		if !built[ch] {
			built[ch] = true
			row := p.Exch.Row(ch)
			for c := 1; c <= n; c++ {
				ex[c] = int32(row[suf[c-1]])
			}
		}
		for i := range mx {
			mx[i] = negInf
		}
		rowAVX8(&prev[0], &cur[8], &maxY[8], &ex[1], n, open, ext, &mx[0])
		zeroBorder(cur, 8, n)
		zeroMasked(cur, 8, tri, y, r0, maskHit(tri, y, r0, n))
		if k := y - r0; k >= 0 && k < 8 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = cur[8*c+k]
			}
		}
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur
}

// avx16 is the 16-lane int16 kernel body: 16 saturating int16 lanes per
// ymm register, interleaved per column exactly as avx8 (same 32-byte
// column stride, twice the matrices). It reports whether any lane's cell
// value reached satLimit16, in which case the bottom rows are unreliable
// and the caller must re-run the group through the exact int32 kernel.
// When proven is true (Int16Proven), the no-tracking row kernel runs and
// the return value is always false.
//
// Unflagged results are bit-identical to the int32 kernels: all values
// stay below satLimit16, so the saturating adds and subtracts behave
// exactly (the negInf16 initials decay toward -32768 under saturating
// subtraction, but like the scalar kernel's -2^29 they always lose the
// maxima to real values — see tier.go for the bounds). The cells the
// post-passes zero need no flag case of their own: a border cell is
// max(d=0, gaps<0) + e < Bias, and an overridden cell computed unmasked
// is at most its value in the group's first alignment — masking only
// lowers values — so it can flag only where that alignment flagged too.
func (sc *Scratch) avx16(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32, proven bool) bool {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := growI16(&sc.prev16, 16*(n+1))
	cur := growI16(&sc.cur16, 16*(n+1))
	maxY := growI16(&sc.maxY16, 16*(n+1))
	for i := range prev {
		prev[i] = 0 // zero boundary row (arena may hold stale values)
		maxY[i] = negInf16
	}
	for i := 0; i < 16; i++ {
		cur[i] = 0 // becomes the boundary column block after the swap
	}

	// The int16 query profile is the row kernel's own (align.Profile),
	// run-wide and shared with the scalar rung: a row holds the exchange
	// values against every residue of s, so column c reads entry r0+c-1.
	prof := sc.row.Profile(p.Exch, s, r0, m)

	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	yMax := r0 + 15
	if yMax > m-1 {
		yMax = m - 1
	}
	var mx, mx1, dc, vc [16]int16
	var sat uint32
	y := 1
	for y <= yMax {
		ex := prof.Row(s[y-1])[r0-1:]
		hit := maskHit(tri, y, r0, n)
		// Pair every two rows below the capture rows (r0..r0+15): row
		// y's prefix and row y+1's prefix run in the single-row kernel so
		// the left border can be repaired before it feeds forward, then
		// the pair kernel sweeps both rows over the remaining columns.
		// Within a row the cells feed only the row below, so row y's
		// overrides matter where row y+1 reads them: in the prefix they
		// are cleared in cur, further right the sweep stops on each hit
		// column and the next span starts from a zeroed v carry. Row
		// y+1's own hits are zeroed after the sweep, like a single row's.
		if y+1 <= yMax && y+1 < r0 && n >= 17 {
			ex1 := prof.Row(s[y])[r0-1:]
			for i := range mx {
				mx[i] = negInf16
				mx1[i] = negInf16
			}
			const pre = 16
			if proven {
				rowAVX16Fast(&prev[0], &cur[16], &maxY[16], &ex[1], pre, open, ext, &mx[0])
			} else {
				rowAVX16(&prev[0], &cur[16], &maxY[16], &ex[1], pre, open, ext, &mx[0], &sat)
			}
			zeroBorder(cur, 16, pre)
			for ; hit >= 0 && hit-r0 <= pre; hit = tri.NextSet(y, hit+1, r0+n+1) {
				c := hit - r0
				clear(cur[16*c : 16*(c+1)])
			}
			copy(dc[:], prev[16*pre:16*pre+16]) // row y-1 at column pre, before overwrite
			copy(vc[:], cur[16*pre:16*pre+16])  // row y at column pre
			if proven {
				rowAVX16Fast(&cur[0], &prev[16], &maxY[16], &ex1[1], pre, open, ext, &mx1[0])
			} else {
				rowAVX16(&cur[0], &prev[16], &maxY[16], &ex1[1], pre, open, ext, &mx1[0], &sat)
			}
			zeroBorder(prev, 16, pre)
			for c0 := pre + 1; c0 <= n; {
				c1 := n // the span is c0..c1, ending on row y's next hit
				if hit >= 0 {
					c1 = hit - r0
				}
				if proven {
					rowAVX16PairFast(&prev[16*c0], &maxY[16*c0], &ex[c0], &ex1[c0],
						c1-c0+1, open, ext, &mx[0], &mx1[0], &dc[0], &vc[0])
				} else {
					rowAVX16Pair(&prev[16*c0], &maxY[16*c0], &ex[c0], &ex1[c0],
						c1-c0+1, open, ext, &mx[0], &mx1[0], &dc[0], &vc[0], &sat)
				}
				if hit >= 0 {
					vc = [16]int16{}
					hit = tri.NextSet(y, hit+1, r0+n+1)
				}
				c0 = c1 + 1
			}
			if sat != 0 {
				return true
			}
			zeroMasked(prev, 16, tri, y+1, r0, maskHit(tri, y+1, r0, n))
			// prev now holds row y+1; cur is scratch again — no swap.
			y += 2
			continue
		}
		for i := range mx {
			mx[i] = negInf16
		}
		if proven {
			rowAVX16Fast(&prev[0], &cur[16], &maxY[16], &ex[1], n, open, ext, &mx[0])
		} else {
			rowAVX16(&prev[0], &cur[16], &maxY[16], &ex[1], n, open, ext, &mx[0], &sat)
		}
		if sat != 0 {
			// Saturated rows will be discarded wholesale; stop early so
			// the int32 re-run pays for the group only once.
			return true
		}
		zeroBorder(cur, 16, n)
		zeroMasked(cur, 16, tri, y, r0, hit)
		if k := y - r0; k >= 0 && k < 16 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = int32(cur[16*c+k])
			}
		}
		prev, cur = cur, prev
		y++
	}
	sc.prev16, sc.cur16 = prev, cur
	return false
}

// negInf matches the scalar kernel's -infinity headroom.
const negInf = -(1 << 29)
