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
	prev8, cur8           []uint8  // the byte kernel's row buffers
	maxY8, maxYout8       []uint8  // and its column gap maxima, in and out
	prof                  Profile  // the vector kernels' own query profile (Scratch.Profile)
	shared                *Profile // a profile shared with other goroutines (ShareProfile)
	model                 rowModel // tier facts of the last scoring model
	k8                    u8Consts // the byte kernel's vectors for model
	tier                  Tier     // tier of the last score or matrix call
	wasted                int64    // cells the last call's flagged byte pass threw away

	segPrev, segCur  []int16            // the segmented kernel's row buffers, slot first
	segMaxY, segProf []int16            // its column gap maxima and profile rows, in segments
	segCodes         []uint8            // the window's residues, in segments
	segCarry         [2][RowBlock]int16 // the horizontal carry between its calls, and the chain ends it came from
	segModel         segModel           // its constants for the last model and width

	flat []int32   // matrix arena: a whole matrix or one traceback block
	rows [][]int32 // row headers over flat

	ck  checkpoints // the last masked score pass's, for the block traceback
	src tbSource    // the rows traceback reads
	rev []Pair      // traceback path accumulator
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
		if sc.model.ok8 {
			sc.k8 = newU8Consts(p, sc.model.bias8)
		}
	}
	sc.tier = sc.model.tier(h, w)
	return sc.tier
}

// Tier reports the kernel tier that served the last score or matrix
// call on sc: what RowTier resolved for its shape and scoring model, or
// TierU8x32 for a ScoreWindow pass the byte rung completed.
func (sc *Scratch) Tier() Tier { return sc.tier }

// Wasted reports the cells the last score call computed on the byte rung
// and threw away: the row that reached the flag level, which the int16
// rung computed again, carrying on from the rows above it. Zero when the
// call did not hand over.
func (sc *Scratch) Wasted() int64 { return sc.wasted }

// Score is the scratch-based variant of the package-level Score: the
// returned row is arena-owned and valid until the next call on sc.
func (sc *Scratch) Score(p Params, s1, s2 []byte) []int32 {
	return sc.score(p, s1, s2, 0, len(s2), nil, 0, 0, false)
}

// ScoreMasked is the scratch-based variant of ScoreMasked.
func (sc *Scratch) ScoreMasked(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	return sc.score(p, s1, s2, 0, len(s2), tri, 0, r, false)
}
