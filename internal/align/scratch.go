package align

import (
	"repro/internal/triangle"
)

// Scratch is a reusable buffer arena for the alignment kernels. A warm
// Scratch makes every score-only kernel allocation-free: buffers grow
// monotonically to the largest operand seen and are reset, never
// reallocated, on reuse.
//
// Ownership rules (DESIGN.md section 10):
//
//   - A Scratch belongs to exactly one goroutine at a time. Schedulers
//     give each worker its own instance; a Scratch must never be shared
//     between concurrent kernel calls.
//   - Slices returned by Scratch methods (bottom rows, matrices) point
//     into the arena and are valid only until the next call on the same
//     Scratch. Callers that retain a row (e.g. the original-row store)
//     must copy it first.
//
// The zero value is ready to use.
type Scratch struct {
	prev, cur, maxY []int32 // linear-memory row buffers
	bottom          []int32 // returned bottom row
	edgeM, edgeMaxX []int32 // striped kernel's inter-stripe carries

	prev16, cur16, maxY16 []int16  // the int16 row kernel's row buffers
	prof                  Profile  // the vector kernels' query profile (Scratch.Profile)
	model                 rowModel // tier facts of the last scoring model
	tier                  Tier     // tier of the last score or matrix call

	flat []int32   // full-matrix arena (traceback path)
	rows [][]int32 // row headers over flat

	rev []Pair // traceback path accumulator
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// growI32 resizes *buf to n entries, reusing capacity when possible.
// Contents are unspecified; callers reset what they read.
func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// rowTier resolves and records the tier of a score or matrix call over
// an h x w matrix.
func (sc *Scratch) rowTier(p Params, h, w int) Tier {
	if sc.model.p != p {
		sc.model = newRowModel(p)
	}
	sc.tier = sc.model.tier(h, w)
	return sc.tier
}

// Tier reports the kernel tier that served the last score or matrix
// call on sc: what RowTier resolved for its shape and scoring model.
func (sc *Scratch) Tier() Tier { return sc.tier }

// Score is the scratch-based variant of the package-level Score: the
// returned row is arena-owned and valid until the next call on sc.
func (sc *Scratch) Score(p Params, s1, s2 []byte) []int32 {
	return sc.score(p, s1, s2, 0, len(s2), nil, 0, 0)
}

// ScoreMasked is the scratch-based variant of ScoreMasked.
func (sc *Scratch) ScoreMasked(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	return sc.score(p, s1, s2, 0, len(s2), tri, 0, r)
}
