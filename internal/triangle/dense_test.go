package triangle

import "math/bits"

// dense is Appendix A's triangle as the paper plans it, and as this
// package stored it until the sparse rows replaced it: m(m-1)/2 bits,
// row-major by i, so pair (i, j) is bit rowOffset(i) + j-i-1. It is the
// oracle the sparse Triangle is checked against and exists only in
// tests; it shares no code with triangle.go.
type dense struct {
	m     int
	words []uint64
	count int
}

func newDense(m int) *dense {
	n := m * (m - 1) / 2
	return &dense{m: m, words: make([]uint64, (n+63)/64)}
}

// rowOffset is the bit of pair (i, i+1): sum_{k=1}^{i-1} (m-k).
func (d *dense) rowOffset(i int) int { return (i-1)*d.m - i*(i-1)/2 }

func (d *dense) index(i, j int) int { return d.rowOffset(i) + j - i - 1 }

func (d *dense) Set(i, j int) {
	idx := d.index(i, j)
	if w, b := idx>>6, uint(idx&63); d.words[w]&(1<<b) == 0 {
		d.words[w] |= 1 << b
		d.count++
	}
}

func (d *dense) Get(i, j int) bool {
	idx := d.index(i, j)
	return d.words[idx>>6]&(1<<uint(idx&63)) != 0
}

// NextSet answers the row-addressed question from the bit run of row i:
// the range is clamped to the row's own columns i+1..m first, which is
// what keeps a range starting left of the diagonal out of row i-1's tail.
func (d *dense) NextSet(i, from, to int) int {
	from, to = max(from, i+1), min(to, d.m+1)
	if i < 1 || from >= to {
		return -1
	}
	lo, hi := d.index(i, from), d.index(i, to-1)+1
	w, last := lo>>6, (hi-1)>>6
	word := d.words[w] & (^uint64(0) << uint(lo&63))
	for word == 0 {
		if w == last {
			return -1
		}
		w++
		word = d.words[w]
	}
	if idx := w<<6 + bits.TrailingZeros64(word); idx < hi {
		return i + 1 + idx - d.rowOffset(i)
	}
	return -1
}

func (d *dense) Clone() *dense {
	return &dense{m: d.m, words: append([]uint64(nil), d.words...), count: d.count}
}

func (d *dense) Equal(o *dense) bool {
	if d.m != o.m {
		return false
	}
	for i, w := range d.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}
