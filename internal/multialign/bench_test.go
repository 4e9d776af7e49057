package multialign

import (
	"fmt"
	"testing"

	"repro/internal/seq"
	"repro/internal/triangle"
)

// benchGroupCells is the lane-cell count the group kernels compute for a
// group starting at r0: lane k covers rows 1..r0+k over n columns.
func benchGroupCells(m, r0, lanes int) int64 {
	var cells int64
	for k := 0; k < lanes; k++ {
		r := r0 + k
		if r > m-1 {
			break
		}
		cells += int64(r) * int64(m-r)
	}
	return cells
}

func BenchmarkScoreGroupAuto8(b *testing.B) {
	for _, n := range []int{1200, 4096} {
		s := seq.SyntheticTitin(n, 1).Codes
		r0 := n / 2
		sc := NewScratch()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(benchGroupCells(n, r0, 8))
			for i := 0; i < b.N; i++ {
				if _, err := sc.ScoreGroupAuto(protein, s, r0, 8, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreGroupAuto16 times a 16-lane group clean and in the
// realignment shape: one override per row below r0, as an accepted
// alignment leaves them (row y paired with r0+y). n=300 is the size of a
// typical serving request, where the work around the kernel shows most.
func BenchmarkScoreGroupAuto16(b *testing.B) { benchScoreGroupAuto(b, 16, []int{300, 1200, 4096}) }

// BenchmarkScoreGroupAuto32 is BenchmarkScoreGroupAuto16 for the byte
// rung's 32-lane groups, at lengths whose groups stay under its flag
// level (BLOSUM62 titin), so every call is one byte pass: lane-cells/s
// against the 16-lane figure is the byte kernel's gain.
func BenchmarkScoreGroupAuto32(b *testing.B) { benchScoreGroupAuto(b, 32, []int{300, 600}) }

func benchScoreGroupAuto(b *testing.B, lanes int, lengths []int) {
	for _, n := range lengths {
		s := seq.SyntheticTitin(n, 1).Codes
		r0 := n / 2
		masked := triangle.New(n)
		for y := 1; y < r0; y++ {
			masked.Set(y, r0+y)
		}
		sc := NewScratch()
		for _, tc := range []struct {
			name string
			tri  *triangle.Triangle
		}{{"clean", nil}, {"masked", masked}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				b.SetBytes(benchGroupCells(n, r0, lanes))
				for i := 0; i < b.N; i++ {
					g, err := sc.ScoreGroupAuto(protein, s, r0, lanes, tc.tri)
					if err != nil {
						b.Fatal(err)
					}
					if g.Rerun {
						b.Fatalf("benchmark input saturated the %s kernel", TierFor(protein, n, lanes))
					}
				}
			})
		}
	}
}
