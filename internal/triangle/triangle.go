// Package triangle provides the override triangle of the paper's
// top-alignment algorithm — a bitset over residue position pairs (i, j)
// with 1 <= i < j <= m — plus the triangular bottom-row store used for
// shadow-alignment rejection (Appendix A of the paper).
//
// Pairs are laid out row-major by i, so that for a fixed prefix position
// i the suffix positions j are contiguous. The alignment kernel for split
// r walks local coordinates (y, x) which map to the global pair
// (y, r+x); with this layout the kernel reads a contiguous bit run per
// matrix row.
package triangle

import (
	"fmt"
	"math/bits"
)

// Triangle is a set of position pairs (i, j), 1 <= i < j <= m.
// The zero value is unusable; construct with New. Triangle is not
// self-synchronising: concurrent readers are safe only while no writer is
// active (the parallel schedulers publish immutable snapshots instead).
type Triangle struct {
	m     int
	words []uint64
	count int
}

// New returns an empty triangle over sequence length m (m >= 2).
func New(m int) *Triangle {
	if m < 2 {
		panic(fmt.Sprintf("triangle: sequence length %d too short", m))
	}
	n := m * (m - 1) / 2
	return &Triangle{m: m, words: make([]uint64, (n+63)/64)}
}

// M returns the sequence length the triangle is defined over.
func (t *Triangle) M() int { return t.m }

// Pairs returns the total number of representable pairs, m(m-1)/2.
func (t *Triangle) Pairs() int { return t.m * (t.m - 1) / 2 }

// Count returns the number of pairs currently set.
func (t *Triangle) Count() int { return t.count }

// RowOffset returns the raw index of pair (i, i+1): the start of row i.
// Row i covers indices RowOffset(i) .. RowOffset(i)+(m-i-1) for
// j = i+1 .. m, consecutively.
func (t *Triangle) RowOffset(i int) int {
	// sum_{k=1}^{i-1} (m-k) = (i-1)*m - i*(i-1)/2
	return (i-1)*t.m - i*(i-1)/2
}

// Index returns the raw index of pair (i, j). It panics if the pair is
// out of range or not strictly ordered.
func (t *Triangle) Index(i, j int) int {
	if i < 1 || j <= i || j > t.m {
		panic(fmt.Sprintf("triangle: pair (%d,%d) invalid for m=%d", i, j, t.m))
	}
	return t.RowOffset(i) + (j - i - 1)
}

// Set marks pair (i, j).
func (t *Triangle) Set(i, j int) {
	idx := t.Index(i, j)
	w, b := idx>>6, uint(idx&63)
	if t.words[w]&(1<<b) == 0 {
		t.words[w] |= 1 << b
		t.count++
	}
}

// Get reports whether pair (i, j) is marked.
func (t *Triangle) Get(i, j int) bool {
	idx := t.Index(i, j)
	return t.words[idx>>6]&(1<<uint(idx&63)) != 0
}

// GetAt reports whether the pair at raw index idx is marked; idx must
// come from Index or RowOffset arithmetic. No kernel probes the triangle
// per cell: outside tests the callers are the Equation-1 oracle
// (align.NaiveMatrix) and traceback's crossed-override sanity check.
func (t *Triangle) GetAt(idx int) bool {
	return t.words[idx>>6]&(1<<uint(idx&63)) != 0
}

// NextSet returns the smallest raw index in [from, to) whose pair is
// marked, or -1 if none. It is the alignment kernels' one read path:
// every kernel computes a matrix row unmasked and then walks that row's
// index range with NextSet to zero the marked cells, so a clean row
// costs one word scan and a marked one a call per hit.
func (t *Triangle) NextSet(from, to int) int {
	if from < 0 {
		from = 0
	}
	if max := len(t.words) * 64; to > max {
		to = max
	}
	if from >= to {
		return -1
	}
	w, last := from>>6, (to-1)>>6
	word := t.words[w] & (^uint64(0) << uint(from&63))
	for word == 0 {
		if w == last {
			return -1
		}
		w++
		word = t.words[w]
	}
	if idx := w<<6 + bits.TrailingZeros64(word); idx < to {
		return idx
	}
	return -1
}

// Clone returns an independent copy. The parallel schedulers use clones
// as immutable published snapshots.
func (t *Triangle) Clone() *Triangle {
	cp := &Triangle{m: t.m, words: make([]uint64, len(t.words)), count: t.count}
	copy(cp.words, t.words)
	return cp
}

// Equal reports whether two triangles mark exactly the same pairs.
func (t *Triangle) Equal(o *Triangle) bool {
	if t.m != o.m {
		return false
	}
	for i, w := range t.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}
