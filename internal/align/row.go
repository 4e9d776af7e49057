package align

import (
	"bytes"

	"repro/internal/scoring"
	"repro/internal/triangle"
)

// The vector row drivers. A vector row buffer is laid out
//
//	[pad] [boundary] [column 1 .. column n, rounded up to whole blocks]
//
// pad and boundary stay zero: the boundary is the matrix's column 0, the
// pad the element the kernel's shifted load of the first block reads in
// front of it. Columns past n are computed like any other (their
// exchange values are the residues that follow the window, or the
// profile's zero padding past the sequence end) and never read: a cell
// depends on the row above at its own column and to the left only.
//
// A kernel call computes a run of rows: it takes the profile at the
// window's first column, the vertical residue codes and the profile's
// row stride, and swaps its two row buffers after each row, so an
// unmasked pass is one call. A masked pass is one call per row, because
// zeroMasked runs between rows, and keeps its checkpoint rows (keepRow)
// for the block traceback.

// Profile is the query profile of the vector kernels: row a holds
// Exch[a][h[x]] for every position x of one horizontal sequence h, so a
// matrix row's exchange values are one contiguous slice — at offset X0-1
// for a window, r0 for the group at r0, which is why one profile serves
// every window, split and group of an engine run. Rows come in int16, for
// the int16 and int32 rungs, and in biased bytes for the byte rung.
//
// A scratch's own profile builds a row on first use, keeps its own copy
// of h and starts over when the columns a call is about to read differ
// from it, so a caller that reuses a sequence buffer for other residues
// is safe. NewProfile builds every row at once instead: a complete profile
// is only ever read, so any number of goroutines can share it
// (Scratch.ShareProfile).
type Profile struct {
	exch     *scoring.Matrix
	h        []byte  // the sequence the rows were built from
	stride   int     // len(h) + 2*RowBlock - 1: a block of either width may start at the last residue
	rows     []int16 // alphabet size x stride, zero past len(h)
	rows8    []uint8 // the same values plus exchBias, zero past len(h); allocated with the first
	built    []uint8 // per residue code: which of its rows are built (builtInt16, builtByte)
	complete bool    // every row is built (NewProfile)
}

const (
	builtInt16 uint8 = 1 << iota
	builtByte
)

// NewProfile builds the complete profile of h under exch, for sharing
// between goroutines: see Scratch.ShareProfile.
func NewProfile(exch *scoring.Matrix, h []byte) *Profile {
	pf := new(Profile)
	pf.bind(exch, h)
	for a := range pf.built {
		pf.Row(byte(a))
		pf.Row8(byte(a))
	}
	pf.complete = true
	return pf
}

// serves reports whether pf holds columns h[x0:x1] under exch.
func (pf *Profile) serves(exch *scoring.Matrix, h []byte, x0, x1 int) bool {
	return pf.exch == exch && len(pf.h) == len(h) && bytes.Equal(pf.h[x0:x1], h[x0:x1])
}

// bind points pf at h under exch, with no row built.
func (pf *Profile) bind(exch *scoring.Matrix, h []byte) {
	pf.exch = exch
	pf.h = append(pf.h[:0], h...)
	pf.stride = len(h) + 2*RowBlock - 1
	alpha := exch.Alphabet().Len()
	growI16(&pf.rows, alpha*pf.stride)
	pf.rows8 = pf.rows8[:0]
	clear(growU8(&pf.built, alpha))
	pf.complete = false
}

// exchBias is what the byte rung adds to every exchange value so that
// none is negative.
func exchBias(exch *scoring.Matrix) int32 {
	return max(0, -exch.MinScore())
}

// ByteBias is the bias of the byte rows (Row8): what the byte rung adds
// to every exchange value so that none is negative.
func (pf *Profile) ByteBias() uint8 { return uint8(exchBias(pf.exch)) }

// Profile returns the profile sc's kernels read for columns h[x0:x1]
// under exch: the shared one when it serves them, otherwise sc's own,
// rebound if it describes anything else. It is valid until the next call
// on sc that names other residues.
func (sc *Scratch) Profile(exch *scoring.Matrix, h []byte, x0, x1 int) *Profile {
	if pf := sc.shared; pf != nil && pf.serves(exch, h, x0, x1) {
		return pf
	}
	pf := &sc.prof
	if !pf.serves(exch, h, x0, x1) {
		pf.bind(exch, h)
	}
	return pf
}

// ShareProfile makes sc read pf, built by NewProfile, wherever pf serves
// a call's columns, instead of building its own: the windowed driver
// builds one profile per run and every goroutine of the run reads it.
func (sc *Scratch) ShareProfile(pf *Profile) { sc.shared = pf }

// Row returns the exchange values of vertical residue a against every
// position of the bound sequence, zero-padded past its end.
func (pf *Profile) Row(a byte) []int16 {
	row := pf.rows[int(a)*pf.stride : (int(a)+1)*pf.stride]
	if pf.built[a]&builtInt16 == 0 {
		pf.built[a] |= builtInt16
		ex := pf.exch.Row(a)
		for x, c := range pf.h {
			row[x] = ex[c]
		}
		clear(row[len(pf.h):])
	}
	return row
}

// Row8 is Row for the byte rung: each value plus ByteBias.
func (pf *Profile) Row8(a byte) []uint8 {
	if len(pf.rows8) == 0 {
		growU8(&pf.rows8, len(pf.rows))
	}
	row := pf.rows8[int(a)*pf.stride : (int(a)+1)*pf.stride]
	if pf.built[a]&builtByte == 0 {
		pf.built[a] |= builtByte
		ex, bias := pf.exch.Row(a), exchBias(pf.exch)
		for x, c := range pf.h {
			row[x] = uint8(int32(ex[c]) + bias)
		}
		clear(row[len(pf.h):])
	}
	return row
}

// need builds the rows of every residue of s1, which a kernel call over
// the rows of s1 reads without asking: the byte rows for the byte rung,
// the int16 rows otherwise.
func (pf *Profile) need(s1 []byte, rung Tier) {
	if pf.complete {
		return
	}
	for _, a := range s1 {
		if rung == TierU8x32 {
			pf.Row8(a)
		} else {
			pf.Row(a)
		}
	}
}

func growI16(buf *[]int16, n int) []int16 {
	if cap(*buf) < n {
		*buf = make([]int16, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growU8(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// zeroMasked forces the overridden cells of a computed row to zero (the
// paper's "overriding zeros"): cells holds the cells of global pairs
// (i, j0), (i, j0+1), ... of triangle row i. A cell feeds nothing in
// its own row — the diagonal and both gap chains read the row above — so
// every row kernel, Go or vector, computes the row unmasked and this
// pass afterwards is the whole of masking.
func zeroMasked[T uint8 | int16 | int32](cells []T, tri *triangle.Triangle, i, j0 int) {
	end := j0 + len(cells)
	for j := tri.NextSet(i, j0, end); j >= 0; j = tri.NextSet(i, j+1, end) {
		cells[j-j0] = 0
	}
}

// u8Consts are the byte kernel's per-model vectors, 32 lanes each: open,
// ext, open+ext, 2, 4 and 8 ext, the cross-half ramp (low half 0, high
// half 1..16 ext), the block ramp (1..32 ext) and the bias. Each is
// saturated at 255, which the clamp at zero makes exact: a chain value
// minus 255 or more is 0 either way.
type u8Consts [9][2 * RowBlock]uint8

func newU8Consts(p Params, bias int32) (k u8Consts) {
	sat := func(v int64) uint8 { return uint8(min(v, 255)) }
	open, ext := int64(p.Gap.Open), int64(p.Gap.Ext)
	for i := range k[0] {
		k[0][i], k[1][i], k[2][i] = sat(open), sat(ext), sat(open+ext)
		k[3][i], k[4][i], k[5][i] = sat(2*ext), sat(4*ext), sat(8*ext)
		if i >= RowBlock {
			k[6][i] = sat(int64(i-RowBlock+1) * ext)
		}
		k[7][i] = sat(int64(i+1) * ext)
		k[8][i] = uint8(bias)
	}
	return k
}

// rowsU8 runs the byte kernel over every row of the matrix of s1 against
// columns h[x0:x0+n] and returns the bottom row's buffer (in the layout
// above, one byte per cell), or the 1-based row at which a cell reached
// the flag level. Then the buffer is that row's row above and sc.maxY8
// the column gap maxima it started from: exact (the chains clamped at
// zero), since no row above the flagged one reached the level, and the
// state rows16 carries on from (handOver). Unmasked, the pass is one
// kernel call.
func (sc *Scratch) rowsU8(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int) (bottom []uint8, flagged int) {
	const block = 2 * RowBlock
	nb := (n + block - 1) / block
	prev := growU8(&sc.prev8, 2+block*nb)
	cur := growU8(&sc.cur8, 2+block*nb)
	maxY := growU8(&sc.maxY8, block*nb)
	maxYout := growU8(&sc.maxYout8, block*nb)
	clear(prev)
	cur[0], cur[1] = 0, 0
	clear(maxY)
	prof := sc.Profile(p.Exch, h, x0, x0+n)
	prof.need(s1, TierU8x32)
	base := &prof.rows8[x0]
	if tri == nil {
		flagged = scanU8(&prev[0], &cur[2], &maxY[0], &maxYout[0], base, &s1[0], len(s1), prof.stride, nb, &sc.k8)
		swaps := len(s1) // the kernel swapped the buffers after every row it finished
		if flagged != 0 {
			swaps = flagged - 1
		}
		if swaps%2 == 1 {
			prev, cur = cur, prev
			maxY, maxYout = maxYout, maxY
		}
	} else {
		for y := 1; y <= len(s1); y++ {
			if scanU8(&prev[0], &cur[2], &maxY[0], &maxYout[0], base, &s1[y-1], 1, prof.stride, nb, &sc.k8) != 0 {
				flagged = y
				break
			}
			zeroMasked(cur[2:2+n], tri, dy+y, dx+1)
			prev, cur = cur, prev
			maxY, maxYout = maxYout, maxY
			keepRow(&sc.ck, dy+y, prev[2:2+n], maxY[:n])
		}
	}
	sc.prev8, sc.cur8, sc.maxY8, sc.maxYout8 = prev, cur, maxY, maxYout // keep the swaps so reuse stays coherent
	return prev, flagged
}

// handOver loads the byte rung's state at a flagged row — the row above
// it and the column gap maxima it started from, rowsU8 — into the int16
// row buffers for n columns, so that rows16 computes the flagged row and
// the rows below it from there. A clamped gap maximum of 0 stands for
// any value <= 0: the diagonal, >= 0, takes part in every cell's max,
// and a chain at or below 0 stays there.
func (sc *Scratch) handOver(n int) {
	nb := (n + RowBlock - 1) / RowBlock
	widen(growI16(&sc.prev16, 2+RowBlock*nb), sc.prev8)
	widen(growI16(&sc.maxY16, RowBlock*nb), sc.maxY8)
}

// load16 loads a checkpoint's state — a row's cells and the column gap
// maxima the row below starts from, int32, n columns — into the int16
// row buffers, so that rows16 carries on from there. Every cell fits:
// the int16 rung only serves matrices whose cells it proves below
// SatLimit16. A gap maximum below NegInf16 is NegInf16: any value <= 0
// stands for every other one (handOver).
func (sc *Scratch) load16(cells, maxY []int32, n int) {
	nb := (n + RowBlock - 1) / RowBlock
	prev := growI16(&sc.prev16, 2+RowBlock*nb)
	mY := growI16(&sc.maxY16, RowBlock*nb)
	clear(prev)
	widen(prev[2:2+n], cells)
	for i := range mY {
		mY[i] = NegInf16
	}
	for i, v := range maxY[:n] {
		mY[i] = int16(max(v, NegInf16))
	}
}

// rows16 runs the int16 row kernel over every row of the matrix of s1
// against columns h[x0:x0+n] and returns the bottom row's buffer (in the
// layout above). It starts from the zero boundary row, or, when resume is
// set, from the state handOver or load16 left in the row buffers. When
// flat is not nil it is a matrix arena of the given row stride in the
// same layout, and every row is also written there widened to int32.
// Unmasked, the pass is one kernel call.
func (sc *Scratch) rows16(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int, flat []int32, stride int, resume bool) []int16 {
	nb := (n + RowBlock - 1) / RowBlock
	prev := growI16(&sc.prev16, 2+RowBlock*nb)
	cur := growI16(&sc.cur16, 2+RowBlock*nb)
	maxY := growI16(&sc.maxY16, RowBlock*nb)
	cur[0], cur[1] = 0, 0
	if !resume {
		clear(prev)
		for i := range maxY {
			maxY[i] = NegInf16
		}
	}
	prof := sc.Profile(p.Exch, h, x0, x0+n)
	prof.need(s1, TierInt16x16)
	base := &prof.rows[x0]
	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	out32 := func(y int) *int32 {
		if flat == nil {
			return nil
		}
		return &flat[y*stride+2]
	}
	if tri == nil && len(s1) > 0 {
		scan16(&prev[0], &cur[2], &maxY[0], base, &s1[0], len(s1), 2*prof.stride, out32(1), nb, open, ext)
		if len(s1)%2 == 1 {
			prev, cur = cur, prev // the kernel swapped after every row: the bottom row is in cur
		}
	} else {
		for y := 1; y <= len(s1); y++ {
			scan16(&prev[0], &cur[2], &maxY[0], base, &s1[y-1], 1, 2*prof.stride, out32(y), nb, open, ext)
			zeroMasked(cur[2:2+n], tri, dy+y, dx+1)
			prev, cur = cur, prev
			if flat != nil {
				zeroMasked(flat[y*stride+2:y*stride+2+n], tri, dy+y, dx+1)
			} else {
				keepRow(&sc.ck, dy+y, prev[2:2+n], maxY[:n])
			}
		}
	}
	sc.prev16, sc.cur16 = prev, cur // keep the swap so reuse stays coherent
	return prev
}

// rows8 is the exact int32 kernel's driver, in blocks of 8 columns, one
// call per row. With a traceback arena the rows are computed in place
// there, from the arena's first row and, when resume is set, the column
// gap maxima in sc.maxY, and the return value is nil.
func (sc *Scratch) rows8(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int, flat []int32, stride int, resume bool) []int32 {
	const block = RowBlock / 2
	nb := (n + block - 1) / block
	var prev, cur []int32
	if flat == nil {
		prev = growI32(&sc.prev, 2+block*nb)
		cur = growI32(&sc.cur, 2+block*nb)
		clear(prev)
		cur[0], cur[1] = 0, 0
	}
	maxY := sc.maxY
	if !resume {
		maxY = sc.gapMaxima32(n, block)
	}
	prof := sc.Profile(p.Exch, h, x0, x0+n)
	open, ext := p.Gap.Open, p.Gap.Ext
	for y := 1; y <= len(s1); y++ {
		ex := prof.Row(s1[y-1])[x0:]
		if flat != nil {
			prev, cur = flat[(y-1)*stride:y*stride], flat[y*stride:(y+1)*stride]
		}
		rowScan8(&prev[0], &cur[2], &maxY[0], &ex[0], nb, open, ext)
		if tri != nil {
			zeroMasked(cur[2:2+n], tri, dy+y, dx+1)
		}
		if flat == nil {
			prev, cur = cur, prev
			if tri != nil {
				keepRow(&sc.ck, dy+y, prev[2:2+n], maxY[:n])
			}
		}
	}
	if flat != nil {
		return nil
	}
	sc.prev, sc.cur = prev, cur
	return prev
}
