package align

import (
	"fmt"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// BenchmarkScoreWindowShapes is the row kernel's shape sweep
// (EXPERIMENTS.md "Row kernel"): ScoreWindow over four window shapes,
// then the largest-but-one again against a triangle holding one accepted
// alignment (a re-alignment), as a whole matrix, and as the block
// traceback that reads the re-alignment's checkpoints. MB/s reads as
// Mcells/s; run it under each REPRO_KERNEL_TIER for the three rungs.
func BenchmarkScoreWindowShapes(b *testing.B) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	s := seq.SyntheticTitin(6000, 1).Codes
	window := func(h, w int) Rect { return Rect{Y0: 1, Y1: h, X0: h + 1, X1: h + w} }
	for _, sh := range [][2]int{{50, 83}, {89, 125}, {700, 750}, {2000, 2000}} {
		rect := window(sh[0], sh[1])
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			sc := NewScratch()
			b.SetBytes(rect.Cells())
			for i := 0; i < b.N; i++ {
				sc.ScoreWindow(p, s, rect, nil)
			}
		})
	}
	rect := window(700, 750)
	tri := triangle.New(len(s))
	for k := 0; k < 300; k++ { // a 300-pair diagonal inside the window
		tri.Set(200+k, 900+k)
	}
	b.Run("700x750/masked", func(b *testing.B) {
		sc := NewScratch()
		b.SetBytes(rect.Cells())
		for i := 0; i < b.N; i++ {
			sc.ScoreWindow(p, s, rect, tri)
		}
	})
	b.Run("700x750/matrix", func(b *testing.B) {
		sc := NewScratch()
		b.SetBytes(rect.Cells())
		for i := 0; i < b.N; i++ {
			matrixWindow(sc, p, s, rect, tri)
		}
	})
	b.Run("700x750/blocks", func(b *testing.B) {
		sc := NewScratch()
		sc.ScoreWindow(p, s, rect, tri) // the realignment whose checkpoints the trace reads
		b.SetBytes(rect.Cells())
		for i := 0; i < b.N; i++ {
			if _, err := sc.TracebackBlocks(p, s, rect, tri, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
