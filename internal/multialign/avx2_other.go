//go:build !amd64

package multialign

import (
	"repro/internal/align"
	"repro/internal/triangle"
)

// Off amd64 there is no vector tier: align detects none, so TierFor
// resolves every group to the scalar tier and the kernel bodies below
// are unreachable. They exist so ScoreGroupAuto compiles.

func (sc *Scratch) avx8(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) {
	panic("multialign: int32x8 tier selected without AVX2")
}

func (sc *Scratch) avx16(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32, proven bool) bool {
	panic("multialign: int16x16 tier selected without AVX2")
}

func (sc *Scratch) u8x32(p align.Params, s []byte, r0 int, tri *triangle.Triangle, bots [][]int32) int {
	panic("multialign: u8x32 tier selected without AVX2")
}
