// Package multialign implements the coarse-grained SIMD alignment scheme
// of Section 4.1 of the paper: instead of vectorising one matrix, it
// computes 8 or 16 *neighbouring* alignment matrices concurrently — the
// matrices of splits r0, r0+1, ..., which differ only by a few rows at
// the bottom and columns at the left and share the top-right corner of
// Figure 4's rectangle diagram.
//
// Corresponding entries of the group's matrices align the same residue
// pair, so one exchange-matrix lookup serves all lanes, and the entries
// are interleaved in memory exactly as in Figure 7 (lane i of column
// block c is matrix i's entry in column c). On amd64 with AVX2 an
// assembly row kernel computes eight exact int32 lanes or sixteen
// saturating int16 lanes per vector register; everywhere else, and for
// groups narrower than a register, a group is a loop over the scalar row
// kernel of package align, one split at a time.
package multialign

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/triangle"
)

// Bias bounds the exchange values the int16 tier accepts: matrices must
// have |score| < Bias (all embedded matrices do), so one saturating add
// cannot jump from below satLimit16 past the int16 range.
const Bias = align.Int16Bias

// Group is the result of a group alignment: one bottom row per lane.
// Bottoms[i] is the bottom row of split r0+i, or nil when that split is
// out of range (r0+i > len(s)-1).
//
// Tier and Rerun are observability fields: Tier is the kernel tier that
// produced the rows (after any saturation fallback), and Rerun reports
// that the int16 kernel saturated and the group was transparently
// recomputed in exact int32 — the rows are correct either way.
type Group struct {
	R0      int
	Bottoms [][]int32
	Tier    Tier
	Rerun   bool
}

// ScoreGroupAuto computes the bottom rows of `lanes` (4, 8 or 16)
// neighbouring splits starting at split r0, against override triangle
// tri (which may be nil). s is the full sequence; split r aligns s[:r]
// with s[r:]. It dispatches on the effective kernel tier (TierFor): full
// 16-lane groups whose scoring model fits 16-bit arithmetic run the
// saturating int16 kernel — with an exact int32 re-run if the sticky
// saturation flag fires — 8-lane blocks run the exact int32 AVX2 kernel,
// and everything else runs align's scalar row kernel split by split. All
// paths produce bit-identical bottom rows; the chosen path is reported
// in Group.Tier.
func (sc *Scratch) ScoreGroupAuto(p align.Params, s []byte, r0, lanes int, tri *triangle.Triangle) (*Group, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(s)
	if r0 < 1 || r0 > m-1 {
		return nil, fmt.Errorf("multialign: group start split %d out of range for length %d", r0, m)
	}
	if lanes != 4 && lanes != 8 && lanes != 16 {
		return nil, fmt.Errorf("multialign: unsupported lane count %d (want 4, 8, or 16)", lanes)
	}
	g := sc.newGroup(m, r0, lanes)
	tier := TierFor(p, m, lanes)
	if tier == TierInt16x16 {
		proven := Int16Proven(p, m, r0, lanes)
		if !sc.avx16(p, s, r0, tri, g.Bottoms, proven) {
			g.Tier = TierInt16x16
			return g, nil
		}
		// Saturation detected: the int16 rows are unreliable. Re-run the
		// whole group through the exact int32 kernel below — the int16
		// tier implies AVX2, so avx8 is always the rerun engine.
		g.Rerun = true
		tier = TierInt32x8
	}
	if tier == TierInt32x8 {
		for block := 0; block < lanes; block += 8 {
			b0 := r0 + block
			if b0 > m-1 {
				break
			}
			sc.avx8(p, s, b0, tri, g.Bottoms[block:])
		}
		g.Tier = TierInt32x8
		return g, nil
	}
	// Split by split through align's row kernel, each split as a window so
	// the group shares one query profile. Under a forced scalar tier those
	// are Go rows; a 4-lane group on a vector tier runs vector rows, and
	// the group reports the widest tier that served a member.
	for k, bottom := range g.Bottoms {
		if bottom == nil {
			break
		}
		r := r0 + k
		copy(bottom, sc.row.ScoreWindowWide(p, s, align.Rect{Y0: 1, Y1: r, X0: r + 1, X1: m}, tri))
		g.Tier = max(g.Tier, sc.row.Tier())
	}
	return g, nil
}
