package multialign

import "repro/internal/align"

// Scratch is the group-kernel analogue of align.Scratch: a reusable
// buffer arena that makes ScoreGroupAuto allocation-free on every tier
// once warm. Buffers grow monotonically to the largest group seen and are
// reset, never reallocated, on reuse.
//
// Ownership rules match align.Scratch (DESIGN.md section 10): a Scratch
// belongs to one goroutine at a time, and the *Group returned by its
// methods — including every bottom row — points into the arena and is
// valid only until the next call on the same Scratch. Callers that
// retain a row must copy it first.
//
// The zero value is ready to use.
type Scratch struct {
	row align.Scratch // the row kernel's own arena (scalar tier) and the int16 query profile

	prev, cur, maxY [][8]int32 // int32 lane rows, one block per column (8-lane AVX2 kernel)
	prof            []int32    // query profile: per-character exchange rows
	profBuilt       []bool

	prev16, cur16, maxY16 [][16]int16 // int16 lane rows, one block per column (16-lane AVX2 kernel; its profile is row's)
	prev8, cur8, maxY8    [][32]uint8 // byte lane rows, one block per column (32-lane AVX2 kernel; its profile is row's)
	junk16                []int16     // the exchange row paired with a group's odd last row (int16, byte)
	junk8                 []uint8

	arena []int32   // bottom-row storage
	heads [][]int32 // lane headers over arena
	g     Group     // reusable result
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// grow resizes *buf to n entries, reusing capacity when possible.
// Contents are unspecified; callers reset what they read.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// newGroup prepares the reusable Group result: one arena-backed bottom
// row per in-range lane (split r0+k <= len-1), nil beyond the sequence
// end. Lane k's row has length m-r0-k, matching what the kernels fill.
func (sc *Scratch) newGroup(m, r0, lanes int) *Group {
	total := 0
	for k := 0; k < lanes; k++ {
		if r := r0 + k; r <= m-1 {
			total += m - r
		}
	}
	arena := grow(&sc.arena, total)
	if cap(sc.heads) < lanes {
		sc.heads = make([][]int32, lanes)
	}
	heads := sc.heads[:lanes]
	off := 0
	for k := 0; k < lanes; k++ {
		if r := r0 + k; r <= m-1 {
			heads[k] = arena[off : off+(m-r) : off+(m-r)]
			off += m - r
		} else {
			heads[k] = nil
		}
	}
	sc.g = Group{R0: r0, Bottoms: heads}
	return &sc.g
}
