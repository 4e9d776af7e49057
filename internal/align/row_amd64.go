//go:build amd64

package align

// scan16 (row_amd64.s) computes rows matrix rows over nb blocks of 16
// columns in saturating int16 lanes: cells into cur (and, widened, into
// out32 when it is not nil), column gap maxima advanced in maxY, the two
// row buffers swapped after every row. prev points one element before the
// row above's boundary column, cur at the first column's cell; row y's
// exchange values start at prof + codes[y-1]*stride bytes.
//
//go:noescape
func scan16(prev, cur, maxY, prof *int16, codes *byte, rows, stride int, out32 *int32, nb int, open, ext int16)

// scanU8 is scan16 on the byte rung, 32 columns per block and no out32:
// it returns the 1-based row at which a cell reached the flag level, and
// stops there, or 0. A row reads its column gap maxima from maxY and
// writes them to maxYout, and the two buffers swap after every row, so a
// flagged row leaves the row above it and the gap maxima it read intact.
//
//go:noescape
func scanU8(prev, cur, maxY, maxYout, prof *uint8, codes *byte, rows, stride, nb int, k *u8Consts) int

// rowScan8 is the exact int32 twin, one row: nb blocks of 8 columns.
//
//go:noescape
func rowScan8(prev, cur, maxY *int32, ex *int16, nb int, open, ext int32)

// seg16 is scan16 in segmented rows (segments.go): segs vectors a row,
// lane j holding columns j*segs+1 .. j*segs+segs, every row buffer
// preceded by a slot vector, no shuffle inside the row. carry holds the
// 16 lanes of the segments' horizontal carry between calls, then the
// chain ends it was made from (segCarry); redo makes the call rebuild
// it, and prev's slot, from prev first. ramp holds (segs-1-v)*ext for
// every vector v but the last, 32767 there, each broadcast to a vector.
//
//go:noescape
func seg16(prev, cur, maxY, prof *int16, codes *byte, rows, stride, segs int, carry, ramp *int16, k *segConsts, redo bool)

// segProfileRow looks segs*16 residue codes up in tab, the exchange
// values of one vertical residue as bytes: one row of seg16's profile.
//
//go:noescape
func segProfileRow(dst *int16, codes *uint8, tab *segTable, segs int)
