// Package multialign implements the coarse-grained SIMD alignment scheme
// of Section 4.1 of the paper: instead of vectorising one matrix, it
// computes 8, 16 or 32 *neighbouring* alignment matrices concurrently —
// the matrices of splits r0, r0+1, ..., which differ only by a few rows
// at the bottom and columns at the left and share the top-right corner of
// Figure 4's rectangle diagram.
//
// Corresponding entries of the group's matrices align the same residue
// pair, so one exchange-matrix lookup serves all lanes, and the entries
// are interleaved in memory exactly as in Figure 7 (lane i of column
// block c is matrix i's entry in column c). On amd64 with AVX2 an
// assembly row kernel computes eight exact int32 lanes, sixteen
// saturating int16 lanes or thirty-two biased unsigned byte lanes per
// vector register — §4.1's narrowing of the element, taken to bytes the
// way SSW does: a group whose byte pass reaches the top of the byte range
// re-runs on the int16 kernel. Everywhere else, and for groups narrower
// than a register, a group is a loop over the scalar row kernel of
// package align, one split at a time.
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
// Tier, Rerun and Wasted are observability fields: Tier is the kernel
// tier that produced the rows (after any saturation fallback), Rerun
// reports that a narrow kernel saturated and the group was transparently
// recomputed one rung wider — the rows are correct either way — and
// Wasted counts the member cells a flagged byte pass had computed when it
// stopped, which the int16 re-run computed again.
type Group struct {
	R0      int
	Bottoms [][]int32
	Tier    Tier
	Rerun   bool
	Wasted  int64
}

// ScoreGroupAuto computes the bottom rows of `lanes` (4, 8, 16 or 32)
// neighbouring splits starting at split r0, against override triangle
// tri (which may be nil). s is the full sequence; split r aligns s[:r]
// with s[r:]. It dispatches on the effective kernel tier (TierFor): full
// 32-lane groups whose scoring model fits the byte rung run the byte
// kernel, re-run as two 16-lane int16 halves if a cell reaches the byte
// range's top; 16-lane blocks whose model fits 16-bit arithmetic run the
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
	if lanes != 4 && lanes != 8 && lanes != 16 && lanes != 32 {
		return nil, fmt.Errorf("multialign: unsupported lane count %d (want 4, 8, 16, or 32)", lanes)
	}
	g := sc.newGroup(m, r0, lanes)
	tier := TierFor(p, m, lanes)
	if tier == TierU8x32 {
		rows := sc.u8x32(p, s, r0, tri, g.Bottoms)
		if rows == 0 {
			g.Tier = TierU8x32
			return g, nil
		}
		// A cell reached the byte range's top: re-run the whole group on
		// the int16 rung below, which the byte rung implies.
		g.Rerun, g.Wasted = true, memberCells(m, r0, lanes, rows)
		tier = TierInt16x16
	}
	if tier == TierInt16x16 {
		g.Tier = TierInt16x16
		for block := 0; block < lanes && r0+block <= m-1; block += 16 {
			b0 := r0 + block
			if !sc.avx16(p, s, b0, tri, g.Bottoms[block:block+16], Int16Proven(p, m, b0, 16)) {
				continue
			}
			// Saturation detected: the block's int16 rows are unreliable.
			// Re-run it through the exact int32 kernel — the int16 tier
			// implies AVX2, so avx8 is always the rerun engine.
			g.Rerun, g.Tier = true, TierInt32x8
			sc.avx8Blocks(p, s, b0, tri, g.Bottoms[block:block+16])
		}
		return g, nil
	}
	if tier == TierInt32x8 {
		sc.avx8Blocks(p, s, r0, tri, g.Bottoms)
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

// avx8Blocks runs the lanes of bots, split r0 onwards, through the int32
// kernel in blocks of 8.
func (sc *Scratch) avx8Blocks(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	for block := 0; block < len(bots) && r0+block <= len(s)-1; block += 8 {
		sc.avx8(p, s, r0+block, tri, bots[block:block+8])
	}
}

// memberCells counts the cells of rows 1..rows of the matrices of the
// group's members: lane k, split r0+k, has r0+k rows of m-r0-k columns.
func memberCells(m, r0, lanes, rows int) int64 {
	var cells int64
	for k := 0; k < lanes && r0+k <= m-1; k++ {
		cells += int64(min(rows, r0+k)) * int64(m-r0-k)
	}
	return cells
}
