package seedindex

import (
	"fmt"
	"math"
	"math/bits"
)

// Index is the k-mer (or spaced-seed) occurrence index of one sequence,
// held as one link per position: next[p] is the nearest position after p
// that carries p's seed, so a seed's occurrences are a chain in ascending
// position order. 0 ends a chain — no position precedes 0 — and is also
// what a position holds whose window was not indexed or whose seed
// exceeded the occurrence cap.
type Index struct {
	next    []int32
	span    int
	kmers   int
	dropped int
	pos     int
}

// BuildIndex indexes every seed window of s (residue codes) under cfg.
// Windows containing an ambiguity code (>= cfg.Base) are skipped, as are
// windows extending past the end; sequences shorter than the seed span
// yield an empty index, not an error (the caller falls back to the exact
// engine when nothing is indexed).
func BuildIndex(s []byte, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if perPos := min(cfg.SuccPairs, cfg.MaxOcc); len(s) > math.MaxInt32/perPos {
		return nil, fmt.Errorf("seedindex: %d residues at up to %d seed pairs each overflow the int32 pair offsets",
			len(s), perPos)
	}
	span, base, offs := cfg.Span(), uint64(cfg.Base), cfg.offsets()
	idx := &Index{next: make([]int32, len(s)), span: span}
	// Scanning right to left, the occurrence seen last is the leftmost so
	// far: linking each position to it builds every chain in position
	// order with one table entry per seed and no list to grow. The table
	// is open-addressed at a load of at most one half — there are no more
	// distinct seeds than windows, nor than base^weight — so building
	// allocates the same few arrays whatever the sequence holds.
	type head struct {
		key          uint64
		first, count int32 // count 0: the slot is free
	}
	windows := max(len(s)-span+1, 1)
	distinct := 1 // min(windows, base^weight)
	for range offs {
		distinct = min(distinct*min(cfg.Base, 256), windows) // a code is a byte
	}
	shift := 64 - bits.Len(uint(2*distinct-1))
	heads := make([]head, 1<<(64-shift))
	for p := len(s) - span; p >= 0; p-- {
		key := uint64(0)
		ok := true
		for _, o := range offs {
			c := s[p+o]
			if int(c) >= cfg.Base {
				ok = false // ambiguity code in window
				break
			}
			key = key*base + uint64(c)
		}
		if !ok {
			continue
		}
		slot := key * 0x9E3779B97F4A7C15 >> shift // Fibonacci hashing
		for heads[slot].count > 0 && heads[slot].key != key {
			slot = (slot + 1) & uint64(len(heads)-1)
		}
		h := &heads[slot]
		if h.count > 0 {
			idx.next[p] = h.first
		}
		h.key, h.first, h.count = key, int32(p), h.count+1
	}
	// Apply the occurrence cap: a dropped seed's chain is unlinked.
	for _, h := range heads {
		switch {
		case h.count == 0:
		case int(h.count) <= cfg.MaxOcc:
			idx.kmers++
			idx.pos += int(h.count)
		default:
			idx.dropped++
			p := h.first
			for range h.count {
				p, idx.next[p] = idx.next[p], 0
			}
		}
	}
	return idx, nil
}

// Kmers returns the number of distinct seeds kept.
func (x *Index) Kmers() int { return x.kmers }

// Dropped returns the number of distinct seeds removed by the
// occurrence cap.
func (x *Index) Dropped() int { return x.dropped }

// Positions returns the total number of indexed occurrences.
func (x *Index) Positions() int { return x.pos }
