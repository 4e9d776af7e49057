// Package triangle provides the override triangle of the paper's
// top-alignment algorithm — a set of residue position pairs (i, j) with
// 1 <= i < j <= m — plus the triangular bottom-row store used for
// shadow-alignment rejection (Appendix A of the paper).
//
// Appendix A plans the triangle as m(m-1)/2 bits. The only writer is the
// acceptance of a top alignment, and an alignment path is strictly
// increasing in both coordinates: it marks at most one pair per row i,
// so after t accepted alignments no row holds more than t pairs. The
// set is therefore stored as, per row, the ascending list of its marked
// columns (nil for a clean row), and costs O(m + pairs set) instead of
// O(m^2). The alignment kernels read it one matrix row at a time: local
// coordinates (y, x) of a matrix whose first column is global position
// c map to the pair (y, c+x-1), all in row y.
package triangle

import (
	"fmt"
	"math"
	"slices"
)

// Triangle is a set of position pairs (i, j), 1 <= i < j <= m.
// The zero value is unusable; construct with New. Triangle is not
// self-synchronising, but a Clone is a snapshot that stays valid and
// unchanging while the original is written to (see Clone).
type Triangle struct {
	m     int
	rows  [][]int32 // rows[i]: the marked columns of row i, ascending; nil when clean
	count int
}

// New returns an empty triangle over sequence length m (m >= 2): one
// table of m+1 row headers, whatever is marked later.
func New(m int) *Triangle {
	if m < 2 || m > math.MaxInt32 {
		panic(fmt.Sprintf("triangle: sequence length %d out of range", m))
	}
	return &Triangle{m: m, rows: make([][]int32, m+1)}
}

// M returns the sequence length the triangle is defined over.
func (t *Triangle) M() int { return t.m }

// Count returns the number of pairs currently set.
func (t *Triangle) Count() int { return t.count }

func (t *Triangle) check(i, j int) {
	if i < 1 || j <= i || j > t.m {
		panic(fmt.Sprintf("triangle: pair (%d,%d) invalid for m=%d", i, j, t.m))
	}
}

// Set marks pair (i, j). It panics if the pair is out of range or not
// strictly ordered. The row's column list is replaced by a fresh one,
// never written in place: a clone made earlier may share the old list
// and must keep reading it unchanged.
func (t *Triangle) Set(i, j int) {
	t.check(i, j)
	row := t.rows[i]
	at := search(row, j)
	if at < len(row) && int(row[at]) == j {
		return
	}
	fresh := make([]int32, len(row)+1)
	copy(fresh, row[:at])
	fresh[at] = int32(j)
	copy(fresh[at+1:], row[at:])
	t.rows[i] = fresh
	t.count++
}

// Get reports whether pair (i, j) is marked. It panics on an invalid
// pair, like Set. No kernel probes the triangle per cell: outside tests
// the callers are the Equation-1 oracle (align.NaiveMatrix) and
// traceback's crossed-override sanity check.
func (t *Triangle) Get(i, j int) bool {
	t.check(i, j)
	return t.NextSet(i, j, j+1) == j
}

// NextSet returns the smallest marked column j of row i with
// from <= j < to, or -1 if there is none. It is the alignment kernels'
// one read path: every kernel computes a matrix row unmasked and then
// walks that row's column range with NextSet to zero the marked cells,
// so a clean row costs a nil check and a marked one a search per hit
// among at most as many columns as there are accepted alignments.
//
// Any i in 0..m and any range are valid questions. Columns at or left of
// the diagonal (j <= i) are never marked, so a range that starts there —
// the group kernels ask for lane k's row r0+k from column r0+1 — is
// answered from the row's own pairs only.
func (t *Triangle) NextSet(i, from, to int) int {
	row := t.rows[i]
	if len(row) == 0 {
		return -1
	}
	if at := search(row, from); at < len(row) && int(row[at]) < to {
		return int(row[at])
	}
	return -1
}

// search returns the position of the first column >= j in an ascending
// list, len(row) if there is none.
func search(row []int32, j int) int {
	at, end := 0, len(row)
	for at < end {
		if mid := int(uint(at+end) >> 1); int(row[mid]) < j {
			at = mid + 1
		} else {
			end = mid
		}
	}
	return at
}

// Clone returns a snapshot of the set: it copies the m+1 row headers and
// shares every column list with the original. Because Set publishes a
// fresh list instead of writing into one, the snapshot and the original
// are independent from then on — either may be written to, and readers
// of one need no lock against a writer of the other. The parallel
// schedulers publish clones as the immutable triangle of a top count.
func (t *Triangle) Clone() *Triangle {
	return &Triangle{m: t.m, rows: slices.Clone(t.rows), count: t.count}
}

// Equal reports whether two triangles mark exactly the same pairs.
func (t *Triangle) Equal(o *Triangle) bool {
	return t.m == o.m && t.count == o.count &&
		slices.EqualFunc(t.rows, o.rows, slices.Equal[[]int32])
}
