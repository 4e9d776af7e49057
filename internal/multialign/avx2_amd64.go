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

// rowAVX16Pair advances TWO matrix rows (y, y+1) in one column sweep
// over the group columns c0..c0+n-1: row y's cells stay in registers and
// feed row y+1's diagonal, and row y+1 is written in place over row y-1
// in buffer a, halving the row traffic that bounds a one-row sweep.
// Over columns 1..15 both rows' cells pass through the border mask
// (borderMask16) before anything reads them. Row y is stored into cur
// too unless cur is nil. d and v are 16-lane carry blocks holding the
// row y-1 and row y values of the column before the span, carried out as
// those of its last column so the next span resumes there. Lanes
// reaching satLimit16 OR their byte mask into *sat; rowAVX16PairFast
// drops saturation tracking, for groups Int16Proven cleared.
//
//go:noescape
func rowAVX16Pair(a, cur, maxY, exY, exY1 *int16, c0, n int, open, ext int16, mxY, mxY1, d, v *int16, sat *uint32)

//go:noescape
func rowAVX16PairFast(a, cur, maxY, exY, exY1 *int16, c0, n int, open, ext int16, mxY, mxY1, d, v *int16)

// borderMask16 is the left border of a 16-lane group, read by the pair
// kernels: block c keeps the lanes k < c and zeroes the rest. Lane k's
// matrix starts at column k+1, so at columns c < 16 the lanes k >= c lie
// on or left of their boundary column and must read zero.
var borderMask16 = func() (t [16][16]int16) {
	for c := range t {
		for k := 0; k < c; k++ {
			t[c][k] = -1
		}
	}
	return t
}()

// rowU8Pair is rowAVX16Pair on the byte rung: 32 unsigned byte lanes at
// the same 32-byte column stride, the exchange values read from align's
// biased byte profile rows, the border masked by borderMask8. It keeps a
// running maximum of the sweep's cells and ORs into *flag the lanes that
// reached 255-bias, where a cell clips; rows computed under a nonzero
// flag are unreliable.
//
//go:noescape
func rowU8Pair(a, cur, maxY, exY, exY1 *uint8, c0, n int, open, ext, bias uint8, mxY, mxY1, d, v *uint8, flag *uint32)

// borderMask8 is borderMask16 for the 32 lanes of a byte group.
var borderMask8 = func() (t [32][32]uint8) {
	for c := range t {
		for k := 0; k < c; k++ {
			t[c][k] = 0xff
		}
	}
	return t
}()

// The group drivers compute rows 1..r0+lanes-1 of a group over its n
// columns, avx8 one row per call, avx16 and u8x32 two rows per sweep.
// Per row they look up the row's query-profile slice, run the assembly
// over columns 1..n, zero the overridden columns and capture the bottom
// row of the lane whose matrix ends there. The assembly knows no mask,
// and need not: the diagonal and both gap chains read only the row
// above, already repaired, so the cells it gets wrong in this row are put
// right before anything reads them (the same post-pass align.zeroMasked
// is for the row kernels). The two-row sweeps are the one place a row is
// read before its post-pass, so they stop on each of the first row's
// overridden columns. The left border — the lanes k >= c of the columns
// c < lanes — must read zero too: avx8 re-zeroes it after each row, the
// pair kernels mask it as they go.

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
func zeroMasked[B any](row []B, tri *triangle.Triangle, y, r0, hit int) {
	var zero B
	for j := hit; j >= 0; j = tri.NextSet(y, j+1, tri.M()+1) {
		row[j-r0] = zero
	}
}

// fill sets every block of row to b, doubling the filled prefix with
// each copy.
func fill[B any](row []B, b B) {
	if len(row) == 0 {
		return
	}
	row[0] = b
	for i := 1; i < len(row); i *= 2 {
		copy(row[i:], row[:i])
	}
}

// avx8 is the 8-lane AVX2 kernel body: exact int32 lanes, 8 per ymm
// register, interleaved per column as in Figure 7. bots holds the
// destination bottom rows: bots[k] receives split r0+k's row (nil lanes
// are skipped).
func (sc *Scratch) avx8(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := grow(&sc.prev, n+1)
	cur := grow(&sc.cur, n+1)
	maxY := grow(&sc.maxY, n+1)
	var inf [8]int32
	for i := range inf {
		inf[i] = negInf
	}
	clear(prev) // zero boundary row (arena may hold stale values)
	fill(maxY, inf)
	cur[0] = [8]int32{} // becomes the boundary column block after the swap

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
	prof := grow(&sc.prof, alpha*(n+1))
	built := grow(&sc.profBuilt, alpha)
	clear(built)
	suf := s[r0:]

	open, ext := p.Gap.Open, p.Gap.Ext
	yMax := min(r0+7, m-1)
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
		mx := inf
		rowAVX8(&prev[0][0], &cur[1][0], &maxY[1][0], &ex[1], n, open, ext, &mx[0])
		for c := 1; c < 8 && c <= n; c++ {
			clear(cur[c][c:]) // the left border
		}
		zeroMasked(cur, tri, y, r0, maskHit(tri, y, r0, n))
		if k := y - r0; k >= 0 && k < 8 && k < len(bots) && bots[k] != nil {
			bottom := bots[k]
			for c := k + 1; c <= n; c++ {
				bottom[c-k-1] = cur[c][k]
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
// When proven is true (Int16Proven), the no-tracking kernels run and the
// return value is always false.
//
// Unflagged results are bit-identical to the int32 kernels: all values
// stay below satLimit16, so the saturating adds and subtracts behave
// exactly (the negInf16 initials decay toward -32768 under saturating
// subtraction, but like the scalar kernel's -2^29 they always lose the
// maxima to real values — see tier.go for the bounds). The cells the
// border mask and the mask post-pass zero need no flag case of their
// own: a border cell is max(d=0, gaps<0) + e < Bias, and an overridden
// cell computed unmasked is at most its value in the group's first
// alignment — masking only lowers values — so it can flag only where
// that alignment flagged too.
func (sc *Scratch) avx16(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32, proven bool) bool {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := grow(&sc.prev16, n+1)
	cur := grow(&sc.cur16, n+1)
	maxY := grow(&sc.maxY16, n+1)
	var inf [16]int16
	for i := range inf {
		inf[i] = negInf16
	}
	clear(prev) // zero boundary row (arena may hold stale values)
	fill(maxY, inf)

	// The int16 query profile is the row kernel's own (align.Profile),
	// run-wide and shared with the scalar rung: a row holds the exchange
	// values against every residue of s, so column c reads entry r0+c-1.
	prof := sc.row.Profile(p.Exch, s, r0, m)

	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	yMax := min(r0+15, m-1)
	if yMax%2 == 1 {
		fill(grow(&sc.junk16, n+1), int16(min(p.Exch.MinScore(), 0)))
	}
	var sat uint32
	for y := 1; y <= yMax; y += 2 {
		// Rows y and y+1 in sweeps from column 1, the border masked in the
		// kernel. Within a row the cells feed only the row below, so row
		// y's overrides matter where row y+1 reads them: the sweep stops
		// on each hit column and the next span starts from a zeroed v
		// carry. Row y+1's own hits are zeroed after the sweep, like a
		// single row's. In the capture rows (r0..r0+15) the sweep keeps
		// row y in cur, its hits zeroed there as the spans end. A group's
		// odd last row y = yMax pairs with a junk row y+1 of the model's
		// lowest exchange value (at most 0): each of its cells is at most
		// its diagonal neighbour in row y or a decayed gap from cells no
		// larger, so it never exceeds row y's largest cell and can raise
		// no flag that row y did not. It is neither zeroed nor captured.
		ex := prof.Row(s[y-1])[r0-1:]
		ex1 := sc.junk16
		if y < yMax {
			ex1 = prof.Row(s[y])[r0-1:]
		}
		mx, mx1, d, v := inf, inf, [16]int16{}, [16]int16{}
		keep := y >= r0
		hit := maskHit(tri, y, r0, n)
		for c0 := 1; c0 <= n; {
			c1 := n // the span is c0..c1, ending on row y's next hit
			if hit >= 0 {
				c1 = hit - r0
			}
			var out *int16
			if keep {
				out = &cur[c0][0]
			}
			if proven {
				rowAVX16PairFast(&prev[c0][0], out, &maxY[c0][0], &ex[c0], &ex1[c0], c0, c1-c0+1,
					open, ext, &mx[0], &mx1[0], &d[0], &v[0])
			} else {
				rowAVX16Pair(&prev[c0][0], out, &maxY[c0][0], &ex[c0], &ex1[c0], c0, c1-c0+1,
					open, ext, &mx[0], &mx1[0], &d[0], &v[0], &sat)
			}
			if hit >= 0 {
				v = [16]int16{}
				if keep {
					cur[c1] = [16]int16{}
				}
				hit = tri.NextSet(y, hit+1, r0+n+1)
			}
			c0 = c1 + 1
		}
		if sat != 0 {
			// Saturated rows will be discarded wholesale; stop early so
			// the int32 re-run pays for the group only once.
			return true
		}
		// prev now holds row y+1 (written in place, no swap), cur row y if kept.
		if keep {
			capture[int16](bots, cur, y-r0)
		}
		if y < yMax {
			zeroMasked(prev, tri, y+1, r0, maskHit(tri, y+1, r0, n))
			capture[int16](bots, prev, y+1-r0)
		}
	}
	return false
}

// u8x32 is the 32-lane byte kernel body: avx16's sweeps with 32 unsigned
// byte lanes per ymm register at the same 32-byte column stride, the
// exchange values read from align's biased byte profile (Profile.Row8).
// It stops after the first sweep that flags a cell at the byte rung's
// clip level, 255-bias, and returns the rows it had computed then: the
// bottom rows are unreliable and the caller re-runs the group on the
// int16 rung. It returns 0 when no cell flagged, and then the bottom
// rows are exact (DESIGN.md section 15): no cell reached the level, so
// every saturating op computed the true value. Gap chains start at 0,
// not negInf: the byte chains clamp at zero.
func (sc *Scratch) u8x32(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) (flagged int) {
	m := len(s)
	n := m - r0 // column c is global position j = r0+c

	prev := grow(&sc.prev8, n+1)
	cur := grow(&sc.cur8, n+1)
	maxY := grow(&sc.maxY8, n+1)
	clear(prev) // zero boundary row (arena may hold stale values)
	clear(maxY)

	prof := sc.row.Profile(p.Exch, s, r0, m)
	bias := prof.ByteBias()
	open, ext := uint8(min(p.Gap.Open, 255)), uint8(min(p.Gap.Ext, 255))
	yMax := min(r0+31, m-1)
	if yMax%2 == 1 {
		clear(grow(&sc.junk8, n+1)) // avx16's junk row, biased
	}
	var flag uint32
	for y := 1; y <= yMax; y += 2 {
		// avx16's row pairs: spans stop on row y's hits, row y+1's are
		// zeroed after the sweep, capture rows keep row y in cur, an odd
		// last row pairs with the junk row.
		ex := prof.Row8(s[y-1])[r0-1:]
		ex1 := sc.junk8
		if y < yMax {
			ex1 = prof.Row8(s[y])[r0-1:]
		}
		var mx, mx1, d, v [32]uint8
		keep := y >= r0
		hit := maskHit(tri, y, r0, n)
		for c0 := 1; c0 <= n; {
			c1 := n
			if hit >= 0 {
				c1 = hit - r0
			}
			var out *uint8
			if keep {
				out = &cur[c0][0]
			}
			rowU8Pair(&prev[c0][0], out, &maxY[c0][0], &ex[c0], &ex1[c0], c0, c1-c0+1,
				open, ext, bias, &mx[0], &mx1[0], &d[0], &v[0], &flag)
			if hit >= 0 {
				v = [32]uint8{}
				if keep {
					cur[c1] = [32]uint8{}
				}
				hit = tri.NextSet(y, hit+1, r0+n+1)
			}
			c0 = c1 + 1
		}
		if flag != 0 {
			return min(y+1, yMax) // the junk row is no row computed
		}
		if keep {
			capture[uint8](bots, cur, y-r0)
		}
		if y < yMax {
			zeroMasked(prev, tri, y+1, r0, maskHit(tri, y+1, r0, n))
			capture[uint8](bots, prev, y+1-r0)
		}
	}
	return 0
}

// capture copies lane k's bottom row out of the int16 or byte row that
// ends its matrix: the lane's cells of columns k+1..n. Lanes outside the
// group or without a destination are skipped.
func capture[E int16 | uint8, B [16]E | [32]E](bots [][]int32, row []B, k int) {
	var lanes B
	if k < 0 || k >= len(lanes) || k >= len(bots) || bots[k] == nil {
		return
	}
	bottom := bots[k]
	cols := row[k+1:][:len(bottom)]
	for i := range cols {
		bottom[i] = int32(cols[i][k])
	}
}

// negInf matches the scalar kernel's -infinity headroom.
const negInf = -(1 << 29)
