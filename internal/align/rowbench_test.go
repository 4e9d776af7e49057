package align

import (
	"fmt"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// dnaTandem is a DNA tandem array of the kind the prefilter's DNA
// workload aligns: 150-base units, 10% substitutions, 1% indels.
func dnaTandem(copies int) []byte {
	return seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: copies, FlankLen: 100,
		Profile: seq.MutationProfile{SubstRate: 0.10, IndelRate: 0.01, IndelExt: 0.5}, Seed: 1}).Codes
}

// BenchmarkScoreWindowShapes is the row kernel's shape sweep
// (EXPERIMENTS.md "Row kernel" and "Wide windows in segmented rows"):
// ScoreWindow over four titin window shapes under BLOSUM62, then the
// 700 x 750 one again against a triangle holding one accepted alignment
// (a re-alignment), as a whole matrix, and as the block traceback that
// reads the re-alignment's checkpoints; then two square windows of a DNA
// tandem array under dna-unit, the prefilter's DNA windows, unmasked and
// masked by the window's own best alignment, as the loop realigns them
// after an accept. MB/s reads as Mcells/s; run it under each
// REPRO_KERNEL_TIER for the rungs.
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
	dna := Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	d := dnaTandem(32)
	for _, side := range []int{1500, 2200} {
		rect := window(side, side)
		for _, masked := range []bool{false, true} {
			var tri *triangle.Triangle
			name := fmt.Sprintf("dna/%dx%d", side, side)
			if masked {
				tri, name = acceptedPath(dna, d, rect), name+"/masked"
			}
			b.Run(name, func(b *testing.B) {
				sc := NewScratch()
				b.SetBytes(rect.Cells())
				for i := 0; i < b.N; i++ {
					sc.ScoreWindow(dna, d, rect, tri)
				}
			})
		}
	}
}

// BenchmarkSegmentCrossover is the width sweep segWidth is read from:
// int16 score passes over 500-row windows from 64 to 2 048 columns wide,
// and 100-row ones from 64 to 1 024, once on the row scan and once in
// segmented rows, under BLOSUM62 on titin and dna-unit on a DNA tandem
// array. The byte rung
// is off, so every pass runs on the int16 rung from its first row.
func BenchmarkSegmentCrossover(b *testing.B) {
	if DetectedTier() < TierInt16x16 {
		b.Skip("needs AVX2")
	}
	defer forceTier(b, TierInt16x16)()
	for _, in := range []struct {
		name string
		p    Params
		s    []byte
	}{
		{"BLOSUM62", Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}, seq.SyntheticTitin(3000, 1).Codes},
		{"dna-unit", Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}, dnaTandem(18)},
	} {
		for _, sh := range [][2]int{
			{100, 64}, {100, 128}, {100, 256}, {100, 1024},
			{500, 64}, {500, 96}, {500, 128}, {500, 160}, {500, 192}, {500, 256}, {500, 384}, {500, 512}, {500, 1024}, {500, 2048},
		} {
			rect := Rect{Y0: 1, Y1: sh[0], X0: 501, X1: 500 + sh[1]}
			for _, layout := range []struct {
				name  string
				width int
			}{{"rows", 1 << 30}, {"segments", RowBlock}} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", in.name, sh[0], sh[1], layout.name), func(b *testing.B) {
					defer setSegWidth(layout.width)()
					sc := NewScratch()
					b.SetBytes(rect.Cells())
					for i := 0; i < b.N; i++ {
						sc.ScoreWindow(in.p, in.s, rect, nil)
					}
				})
			}
		}
	}
}
