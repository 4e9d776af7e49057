// Package align implements the Smith-Waterman/Gotoh local alignment
// kernels of the paper (Figure 3), including the override-masked variants
// used during top-alignment search, the cache-aware striped kernel of
// Section 4.1, and traceback, over a whole matrix or through row blocks
// recomputed from a masked pass's checkpoints.
//
// Conventions: s1 is the vertical sequence (the prefix of a split), s2
// the horizontal one (the suffix). Matrix coordinates are 1-based:
// (y, x) with 1 <= y <= len(s1), 1 <= x <= len(s2); row y aligns residue
// s1[y-1], column x residue s2[x-1]. The recurrence attaches gaps before
// a match, so every cell on an alignment path is a matched residue pair —
// exactly the pairs recorded in the override triangle.
package align

import (
	"fmt"
	"math"

	"repro/internal/scoring"
)

// negInf is the kernel's -infinity. It is far enough from MinInt32 that
// repeated gap-extension subtraction cannot wrap around.
const negInf = math.MinInt32 / 4

// Params bundles the scoring model for a set of alignments.
type Params struct {
	Exch *scoring.Matrix
	Gap  scoring.Gap
}

// Validate rejects unusable parameter sets.
func (p Params) Validate() error {
	if p.Exch == nil {
		return fmt.Errorf("align: nil exchange matrix")
	}
	if err := p.Gap.Validate(); err != nil {
		return err
	}
	return nil
}

// Pair is a matched residue pair on an alignment path, in local matrix
// coordinates (Y over s1, X over s2, both 1-based).
type Pair struct {
	Y, X int
}

// Alignment is a reconstructed local alignment path: the matched pairs in
// path order (top-left to bottom-right) and the alignment score.
type Alignment struct {
	Score int32
	Pairs []Pair
}

// End returns the last matched pair (the bottom-right path end). It
// panics on an empty alignment.
func (a *Alignment) End() Pair { return a.Pairs[len(a.Pairs)-1] }

// Start returns the first matched pair.
func (a *Alignment) Start() Pair { return a.Pairs[0] }

// MaxRowScore returns the maximum of a bottom row.
func MaxRowScore(row []int32) int32 {
	best := int32(0)
	for _, v := range row {
		if v > best {
			best = v
		}
	}
	return best
}
