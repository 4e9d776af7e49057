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
// exchange values are the residues that follow the window, or zero past
// the sequence end) and never read: a cell depends on the row above at
// its own column and to the left only.

// Profile is the query profile of the vector kernels: row a holds
// Exch[a][h[x]] for every position x of one horizontal sequence h, so a
// matrix row's exchange values are one contiguous slice — at offset X0-1
// for a window, r0 for the group at r0, which is why one profile serves
// every window, split and group of an engine run. Rows are built on
// first use. The profile keeps its own copy of h and is rebuilt when the
// columns a call is about to read differ from it, so a caller that
// reuses a sequence buffer for other residues is safe.
type Profile struct {
	exch   *scoring.Matrix
	h      []byte  // the sequence the rows were built from
	stride int     // len(h) + RowBlock - 1: a block may start at the last residue
	rows   []int16 // alphabet size x stride
	built  []bool  // per residue code
}

// Profile returns sc's query profile, bound to columns h[x0:x1] under
// exch: the rows it holds are discarded if they describe anything else.
// It is valid until the next call on sc that names other residues.
func (sc *Scratch) Profile(exch *scoring.Matrix, h []byte, x0, x1 int) *Profile {
	pf := &sc.prof
	if pf.exch == exch && len(pf.h) == len(h) && bytes.Equal(pf.h[x0:x1], h[x0:x1]) {
		return pf
	}
	pf.exch = exch
	pf.h = append(pf.h[:0], h...)
	pf.stride = len(h) + RowBlock - 1
	alpha := exch.Alphabet().Len()
	if cap(pf.rows) < alpha*pf.stride {
		pf.rows = make([]int16, alpha*pf.stride)
	}
	pf.rows = pf.rows[:alpha*pf.stride]
	if cap(pf.built) < alpha {
		pf.built = make([]bool, alpha)
	}
	pf.built = pf.built[:alpha]
	clear(pf.built)
	return pf
}

// Row returns the exchange values of vertical residue a against every
// position of the bound sequence, zero-padded by one block.
func (pf *Profile) Row(a byte) []int16 {
	row := pf.rows[int(a)*pf.stride : (int(a)+1)*pf.stride]
	if !pf.built[a] {
		pf.built[a] = true
		ex := pf.exch.Row(a)
		for x, c := range pf.h {
			row[x] = ex[c]
		}
		clear(row[len(pf.h):])
	}
	return row
}

func growI16(buf *[]int16, n int) []int16 {
	if cap(*buf) < n {
		*buf = make([]int16, n)
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
func zeroMasked[T int16 | int32](cells []T, tri *triangle.Triangle, i, j0 int) {
	end := j0 + len(cells)
	for j := tri.NextSet(i, j0, end); j >= 0; j = tri.NextSet(i, j+1, end) {
		cells[j-j0] = 0
	}
}

// rows16 runs the int16 row kernel over every row of the matrix of s1
// against columns h[x0:x0+n] and returns the bottom row's buffer (in the
// layout above). When flat is not nil it is a traceback matrix arena of
// the given row stride in the same layout, and every row is also
// written there widened to int32.
func (sc *Scratch) rows16(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int, flat []int32, stride int) []int16 {
	nb := (n + RowBlock - 1) / RowBlock
	prev := growI16(&sc.prev16, 2+RowBlock*nb)
	cur := growI16(&sc.cur16, 2+RowBlock*nb)
	maxY := growI16(&sc.maxY16, RowBlock*nb)
	for i := range prev {
		prev[i] = 0
	}
	cur[0], cur[1] = 0, 0
	for i := range maxY {
		maxY[i] = NegInf16
	}
	prof := sc.Profile(p.Exch, h, x0, x0+n)
	open, ext := int16(p.Gap.Open), int16(p.Gap.Ext)
	for y := 1; y <= len(s1); y++ {
		ex := prof.Row(s1[y-1])[x0:]
		var out32 *int32
		if flat != nil {
			out32 = &flat[y*stride+2]
		}
		rowScan16(&prev[0], &cur[2], &maxY[0], &ex[0], out32, nb, open, ext)
		if tri != nil {
			zeroMasked(cur[2:2+n], tri, dy+y, dx+1)
			if flat != nil {
				zeroMasked(flat[y*stride+2:y*stride+2+n], tri, dy+y, dx+1)
			}
		}
		prev, cur = cur, prev
	}
	sc.prev16, sc.cur16 = prev, cur // keep the swap so reuse stays coherent
	return prev
}

// rows8 is rows16 for the exact int32 kernel, in blocks of 8 columns.
// With a traceback arena the rows are computed in place there and the
// return value is nil.
func (sc *Scratch) rows8(p Params, s1, h []byte, x0, n int, tri *triangle.Triangle, dy, dx int, flat []int32, stride int) []int32 {
	const block = RowBlock / 2
	nb := (n + block - 1) / block
	var prev, cur []int32
	if flat == nil {
		prev = growI32(&sc.prev, 2+block*nb)
		cur = growI32(&sc.cur, 2+block*nb)
		for i := range prev {
			prev[i] = 0
		}
		cur[0], cur[1] = 0, 0
	}
	maxY := growI32(&sc.maxY, block*nb)
	for i := range maxY {
		maxY[i] = negInf
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
		}
	}
	if flat != nil {
		return nil
	}
	sc.prev, sc.cur = prev, cur
	return prev
}
