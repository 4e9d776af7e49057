//go:build amd64

package multialign

import (
	"repro/internal/align"
	"repro/internal/triangle"
)

// rowAVX8 (avx2_amd64.s) advances one matrix row over n clean columns of
// the 8-lane interleaved Gotoh recurrence: for each column it computes
// v = clamp0(max(d, mx, maxY) + e), stores it, and updates the running
// gap maxima mx and maxY. prev points at the lane block of the column
// before the segment's first, cur and maxY at the segment's first
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
// span. rowAVX16PairFast drops saturation tracking.
//
//go:noescape
func rowAVX16Pair(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16, sat *uint32)

//go:noescape
func rowAVX16PairFast(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16)

// avx8 is the 8-lane AVX2 kernel body: exact int32 lanes, 8 per ymm
// register, interleaved per column as in Figure 7. The assembly row
// kernel handles clean column runs; Go handles the left-border prologue
// (columns 1..7, where not-yet-started lanes are forced to zero) and
// overridden columns, which are found with triangle.NextSet so masked
// rows still run mostly in assembly. bots holds the destination bottom
// rows: bots[k] receives split r0+k's row (nil lanes are skipped).
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
	// one slice lookup instead of n exchange lookups.
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
		base := 0
		masked := false
		if tri != nil {
			base = tri.RowOffset(y) + r0 - y
			masked = !tri.RowEmpty(base, n)
		}
		// Left-border prologue: lane k's matrix starts at column k+1, so
		// at columns 1..7 lanes k >= c are forced to zero.
		pro := 7
		if n < pro {
			pro = n
		}
		for c := 1; c <= pro; c++ {
			over := masked && tri.GetAt(base+c-1)
			col8(prev, cur, maxY, &mx, c, ex[c], open, ext, over, c)
		}
		// Main loop: clean runs in assembly, overridden columns in Go.
		c := pro + 1
		for c <= n {
			stop := n + 1 // first overridden column at or after c
			if masked {
				if idx := tri.NextSet(base+c-1, base+n); idx >= 0 {
					stop = idx - base + 1
				}
			}
			if seg := stop - c; seg > 0 {
				rowAVX8(&prev[8*(c-1)], &cur[8*c], &maxY[8*c], &ex[c], seg, open, ext, &mx[0])
				c = stop
			}
			if c <= n {
				col8(prev, cur, maxY, &mx, c, ex[c], open, ext, true, 8)
				c++
			}
		}
		// capture the bottom row of the lane whose matrix ends here
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
// column stride, twice the matrices). Structure mirrors avx8: assembly
// for clean column runs, Go (col16) for the left-border prologue and
// overridden columns. It reports whether any lane's cell value reached
// satLimit16, in which case the bottom rows are unreliable and the
// caller must re-run the group through the exact int32 kernel. When
// proven is true (Int16Proven), the no-tracking row kernel runs and the
// return value is always false.
//
// Unflagged results are bit-identical to the int32 kernels: all values
// stay below satLimit16, so the saturating adds and subtracts behave
// exactly (the negInf16 initials decay toward -32768 under saturating
// subtraction, but like the scalar kernel's -2^29 they always lose the
// maxima to real values — see tier.go for the bounds).
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

	// Query profile as in avx8, at int16 width (exchange rows already
	// are []int16, so building a row is a copy loop without widening).
	maxCode := 0
	for _, b := range s {
		if int(b) > maxCode {
			maxCode = int(b)
		}
	}
	alpha := maxCode + 1
	prof := growI16(&sc.prof16, alpha*(n+1))
	built := growBool(&sc.profBuilt, alpha)
	for i := range built {
		built[i] = false
	}
	suf := s[r0:]

	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	yMax := r0 + 15
	if yMax > m-1 {
		yMax = m - 1
	}
	profRow := func(ch byte) []int16 {
		ex := prof[int(ch)*(n+1) : (int(ch)+1)*(n+1)]
		if !built[ch] {
			built[ch] = true
			row := p.Exch.Row(ch)
			for c := 1; c <= n; c++ {
				ex[c] = row[suf[c-1]]
			}
		}
		return ex
	}
	rowBase := func(y int) (int, bool) {
		if tri == nil {
			return 0, false
		}
		base := tri.RowOffset(y) + r0 - y
		return base, !tri.RowEmpty(base, n)
	}
	// Left-border fixup: lane k's matrix starts at column k+1, so at
	// columns 1..15 lanes k >= c are boundary cells, forced to zero.
	// The row kernels compute junk there (their gap chains stay exact,
	// reading only the already-fixed previous row), so each row's buffer
	// is repaired before anything reads it.
	pro := 15
	if n < pro {
		pro = n
	}
	fixupBorder := func(buf []int16) {
		for c := 1; c <= pro; c++ {
			b := buf[16*c : 16*c+16 : 16*c+16]
			for k := c; k < 16; k++ {
				b[k] = 0
			}
		}
	}
	var mx, mx1, dc, vc [16]int16
	var sat uint32
	y := 1
	for y <= yMax {
		ex := profRow(s[y-1])
		base, masked := rowBase(y)
		// Pair rows whenever neither row is masked or captured (capture
		// rows are r0..r0+15, so everything below r0 qualifies): row y's
		// prefix and row y+1's prefix run in the single-row kernel so the
		// left border can be repaired before it feeds forward, then the
		// pair kernel sweeps both rows over the remaining columns.
		if y+1 <= yMax && y+1 < r0 && n >= 17 && !masked {
			if _, masked1 := rowBase(y + 1); !masked1 {
				ex1 := profRow(s[y])
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
				fixupBorder(cur)
				copy(dc[:], prev[16*pre:16*pre+16]) // row y-1 at column pre, before overwrite
				copy(vc[:], cur[16*pre:16*pre+16])  // row y at column pre
				if proven {
					rowAVX16Fast(&cur[0], &prev[16], &maxY[16], &ex1[1], pre, open, ext, &mx1[0])
				} else {
					rowAVX16(&cur[0], &prev[16], &maxY[16], &ex1[1], pre, open, ext, &mx1[0], &sat)
				}
				fixupBorder(prev)
				if proven {
					rowAVX16PairFast(&prev[16*(pre+1)], &maxY[16*(pre+1)], &ex[pre+1], &ex1[pre+1],
						n-pre, open, ext, &mx[0], &mx1[0], &dc[0], &vc[0])
				} else {
					rowAVX16Pair(&prev[16*(pre+1)], &maxY[16*(pre+1)], &ex[pre+1], &ex1[pre+1],
						n-pre, open, ext, &mx[0], &mx1[0], &dc[0], &vc[0], &sat)
				}
				if sat != 0 {
					return true
				}
				// prev now holds row y+1; cur is scratch again — no swap.
				y += 2
				continue
			}
		}
		for i := range mx {
			mx[i] = negInf16
		}
		// Clean runs in assembly, overridden columns in Go. Unlike avx8
		// there is no Go prologue: the assembly covers the left-border
		// columns too, because the gap chains read only prev (already
		// border-corrected last row) — only the stored cell values of
		// lanes k >= c at columns c <= 15 come out wrong, and they are
		// re-zeroed below before anything reads them. (They cannot trip
		// the saturation flag either: max(d=0, gaps<0) + e < Bias.)
		c := 1
		for c <= n {
			stop := n + 1 // first overridden column at or after c
			if masked {
				if idx := tri.NextSet(base+c-1, base+n); idx >= 0 {
					stop = idx - base + 1
				}
			}
			if seg := stop - c; seg > 0 {
				if proven {
					rowAVX16Fast(&prev[16*(c-1)], &cur[16*c], &maxY[16*c], &ex[c], seg, open, ext, &mx[0])
				} else {
					rowAVX16(&prev[16*(c-1)], &cur[16*c], &maxY[16*c], &ex[c], seg, open, ext, &mx[0], &sat)
				}
				c = stop
			}
			if c <= n {
				col16over(prev, cur, maxY, &mx, c, open, ext)
				c++
			}
		}
		fixupBorder(cur)
		if sat != 0 {
			// Saturated rows will be discarded wholesale; stop early so
			// the int32 re-run pays for the group only once.
			return true
		}
		// capture the bottom row of the lane whose matrix ends here
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

// col16over advances one overridden column of the 16-lane recurrence:
// every lane's cell value is forced to zero while the gap chains advance
// exactly as in the assembly. Arithmetic is int32 with a saturating
// narrowing store, so it matches the VPSUBSW lanes bit for bit even once
// a chain has clipped toward -32768.
func col16over(prev, cur, maxY []int16, mx *[16]int16, c int, open, ext int16) {
	o := 16 * c
	d := prev[o-16 : o : o]
	my := maxY[o : o+16 : o+16]
	cc := cur[o : o+16 : o+16]
	for k := 0; k < 16; k++ {
		cc[k] = 0
		g := int32(d[k]) - int32(open)
		mv := int32(mx[k])
		if g > mv {
			mv = g
		}
		mx[k] = sat16(mv - int32(ext))
		yv := int32(my[k])
		if g > yv {
			yv = g
		}
		my[k] = sat16(yv - int32(ext))
	}
}

// sat16 narrows with saturation, matching the vector lanes.
func sat16(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// col8 is the Go fallback for one column of the 8-lane recurrence:
// left-border prologue columns (zeroFrom < 8 zeroes lanes k >= zeroFrom)
// and overridden columns (over forces all lane values to zero while the
// gap maxima still advance, matching the scalar masked kernel).
func col8(prev, cur, maxY []int32, mx *[8]int32, c int, e, open, ext int32, over bool, zeroFrom int) {
	o := 8 * c
	d := prev[o-8 : o : o]
	my := maxY[o : o+8 : o+8]
	cc := cur[o : o+8 : o+8]
	for k := 0; k < 8; k++ {
		var v int32
		if !over && k < zeroFrom {
			v = cellFast(d[k], mx[k], my[k], e)
		}
		cc[k] = v
		g := d[k] - open
		mx[k] = maxG(g, mx[k]) - ext
		my[k] = maxG(g, my[k]) - ext
	}
}

// cellFast is one lane's Figure-3 cell update.
func cellFast(d, mx, my, e int32) int32 {
	best := d
	if mx > best {
		best = mx
	}
	if my > best {
		best = my
	}
	v := best + e
	if v < 0 {
		v = 0
	}
	return v
}

func maxG(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// negInf matches the scalar kernel's -infinity headroom.
const negInf = -(1 << 29)
