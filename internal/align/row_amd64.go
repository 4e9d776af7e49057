//go:build amd64

package align

// rowScan16 (row_amd64.s) computes one matrix row over nb blocks of 16
// columns in saturating int16 lanes: cells into cur (and, widened, into
// out32 when it is not nil), column gap maxima advanced in maxY. prev
// points one element before the row above's boundary column, cur at the
// first column's cell, ex at the first column's exchange value.
//
//go:noescape
func rowScan16(prev, cur, maxY, ex *int16, out32 *int32, nb int, open, ext int16)

// rowScan8 is the exact int32 twin: nb blocks of 8 columns.
//
//go:noescape
func rowScan8(prev, cur, maxY *int32, ex *int16, nb int, open, ext int32)
