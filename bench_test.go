// Benchmarks regenerating the paper's evaluation artifacts. One bench
// (or bench family) per table and figure; cmd/table1, cmd/table2 and
// cmd/figure8 print the corresponding human-readable tables. See
// EXPERIMENTS.md for the paper-vs-measured record.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/align"
	"repro/internal/dessim"
	"repro/internal/multialign"
	"repro/internal/oldalgo"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/topalign"
)

var benchParams = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

// --- Table 1: old vs new sequential algorithm ---------------------------

// BenchmarkTable1New times the new O(n^3) algorithm on titin-like
// prefixes (the paper's lengths scaled down; 10 top alignments).
func BenchmarkTable1New(b *testing.B) {
	for _, n := range []int{200, 400, 600} {
		s := seq.SyntheticTitin(n, 1).Codes
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// one matrix per task, as in the paper's Table 1 and cmd/table1
				if _, err := topalign.Find(s, topalign.Config{Params: benchParams, NumTops: 10, GroupLanes: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1OldNaive times the O(n^4) baseline (Equation-1 gap
// scans, exhaustive realignment). Deliberately small lengths: this is
// the algorithm the paper replaced.
func BenchmarkTable1OldNaive(b *testing.B) {
	for _, n := range []int{100, 200} {
		s := seq.SyntheticTitin(n, 1).Codes
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oldalgo.Find(s, oldalgo.Config{
					Params: benchParams, NumTops: 10, Kernel: oldalgo.KernelNaive,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1OldGotoh is the ablation between the two: the fast
// kernel but none of the new algorithm's realignment avoidance. The gap
// to BenchmarkTable1New isolates the queue heuristic + row caching.
func BenchmarkTable1OldGotoh(b *testing.B) {
	for _, n := range []int{200, 400} {
		s := seq.SyntheticTitin(n, 1).Codes
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oldalgo.Find(s, oldalgo.Config{
					Params: benchParams, NumTops: 10, Kernel: oldalgo.KernelGotoh,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: conventional vs multi-matrix kernels ----------------------

const table2Len = 2048

func table2Input() []byte { return seq.SyntheticTitin(table2Len, 1).Codes }

// BenchmarkTable2Conventional times one scalar matrix at the largest
// split (the paper's "conventional" column).
func BenchmarkTable2Conventional(b *testing.B) {
	active := align.ActiveTier()
	if err := multialign.SetKernelTier(multialign.TierScalar.String()); err != nil {
		b.Fatal(err)
	}
	defer align.SetKernelTier(active.String()) //nolint:errcheck // it was active, so it is supported
	s := table2Input()
	r := len(s) / 2
	b.SetBytes(int64(r) * int64(len(s)-r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Score(benchParams, s[:r], s[r:])
	}
}

// benchTable2Tier times one group of neighbouring matrices centred on
// the largest split with the group kernel forced to one vector tier (the
// paper's SSE/SSE2 columns); b.SetBytes makes MB/s read as Mcells/s.
func benchTable2Tier(b *testing.B, tier multialign.Tier, lanes int) {
	active := align.ActiveTier()
	if tier > multialign.ActiveTier() {
		b.Skipf("kernel tier %s unavailable (active tier %s)", tier, active)
	}
	if err := multialign.SetKernelTier(tier.String()); err != nil {
		b.Fatal(err)
	}
	defer align.SetKernelTier(active.String()) //nolint:errcheck // it was active, so it is supported
	s := table2Input()
	r0 := len(s)/2 - lanes/2
	sc := multialign.NewScratch()
	b.SetBytes(int64(lanes) * int64(len(s)/2) * int64(len(s)-len(s)/2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := sc.ScoreGroupAuto(benchParams, s, r0, lanes, nil)
		if err != nil {
			b.Fatal(err)
		}
		if g.Tier != tier {
			b.Fatalf("group served by tier %s, want %s", g.Tier, tier)
		}
	}
}

// BenchmarkTable2Int32x8 times eight matrices in exact int32 AVX2 lanes,
// the analogue of the paper's 8-lane SSE2 column.
func BenchmarkTable2Int32x8(b *testing.B) { benchTable2Tier(b, multialign.TierInt32x8, 8) }

// BenchmarkTable2Int16x16 times sixteen matrices in saturating int16
// AVX2 lanes, twice the width of anything the paper had.
func BenchmarkTable2Int16x16(b *testing.B) { benchTable2Tier(b, multialign.TierInt16x16, 16) }

// --- Section 5.1: cache-aware striping ----------------------------------

// BenchmarkStripingScalar compares gotohRow driven in DefaultStripeWidth
// column stripes with the same Go row over whole rows. The input is long
// enough (4096 columns) that the striped case really has two stripes, and
// the tier is forced to scalar so that the row-wise case, which is
// ScoreMasked, does not run the vector row kernel.
func BenchmarkStripingScalar(b *testing.B) {
	active := align.ActiveTier()
	if err := multialign.SetKernelTier(multialign.TierScalar.String()); err != nil {
		b.Fatal(err)
	}
	defer align.SetKernelTier(active.String()) //nolint:errcheck // it was active, so it is supported
	s := seq.SyntheticTitin(8192, 1).Codes
	r := len(s) / 2
	for _, width := range []int{0, 1 << 30} { // default stripes vs one giant stripe
		name := "striped"
		if width > len(s) {
			name = "rowwise"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(r) * int64(len(s)-r))
			for i := 0; i < b.N; i++ {
				align.ScoreStriped(benchParams, s[:r], s[r:], nil, r, width)
			}
		})
	}
}

// --- Figure 8: cluster speedup simulation -------------------------------

// BenchmarkFigure8 measures the discrete-event replay itself (the
// figures come from cmd/figure8; this keeps the simulator honest about
// its own cost).
func BenchmarkFigure8(b *testing.B) {
	s := seq.SyntheticTitin(400, 1).Codes
	trace, err := dessim.Record(s, topalign.Config{Params: benchParams, NumTops: 10})
	if err != nil {
		b.Fatal(err)
	}
	model := dessim.PaperModel()
	for _, procs := range []int{16, 128} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dessim.Simulate(trace, model, procs, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- throughput and parallel-engine overhead ----------------------------

// BenchmarkCellThroughput reports raw kernel cell rate (the paper's
// Pentium III manages ~155M cells/s conventionally, >1G with SSE).
func BenchmarkCellThroughput(b *testing.B) {
	s := seq.SyntheticTitin(2048, 3).Codes
	r := len(s) / 2
	cells := int64(r) * int64(len(s)-r)
	b.SetBytes(cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Score(benchParams, s[:r], s[r:])
	}
}

// BenchmarkParallelOverhead compares the sequential driver against the
// shared-memory scheduler at 1 and 2 workers on the same input. On a
// single-CPU host this measures pure scheduling overhead (Section 5.2's
// scaling itself needs real cores; see dessim/cmd/figure8).
func BenchmarkParallelOverhead(b *testing.B) {
	s := seq.SyntheticTitin(300, 2).Codes
	cfg := topalign.Config{Params: benchParams, NumTops: 10}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topalign.Find(s, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Find(s, cfg, parallel.Config{Workers: w, Speculative: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupScheduling compares scalar task scheduling against the
// Section 4.1 group mode end to end.
func BenchmarkGroupScheduling(b *testing.B) {
	s := seq.SyntheticTitin(400, 4).Codes
	for _, lanes := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := topalign.Config{Params: benchParams, NumTops: 10, GroupLanes: lanes}
				if _, err := topalign.Find(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- lane resolution: where group scheduling starts to pay --------------

// dnaTandem is an n-residue DNA tandem array (25-residue unit, 10%
// substitutions, 2% indels): the DNA input of the lane benchmark and of
// the lane differential battery.
func dnaTandem(n int, seed uint64) string {
	q := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 25, Copies: n/25 + 2, FlankLen: 10, Seed: seed,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.02, IndelExt: 0.3}})
	return q.String()[:n]
}

// BenchmarkAnalyzeLanes re-derives topalign's groupCrossover: the whole
// analysis per sequence length and lane count, lanes=0 being what the
// engine chooses. The crossover belongs where lanes=16 stops losing to
// lanes=1 — one matrix at a time on align's vector row kernel — on all
// four inputs; under REPRO_KERNEL_TIER=int32x8 the same sweep compares
// lanes=8, which is what int32-only models resolve to, with int32 rows.
// cells/op shows the extra cells group scheduling computes for its
// speed. EXPERIMENTS.md ("Lane resolution") records a run:
//
//	go test -run '^$' -bench AnalyzeLanes -benchtime 20x
func BenchmarkAnalyzeLanes(b *testing.B) {
	for _, in := range []struct {
		name, matrix string
		gen          func(n int) string
	}{
		{"titin", "BLOSUM62", func(n int) string { return seq.SyntheticTitin(n, 1).String() }},
		{"titin-pam250", "PAM250", func(n int) string { return seq.SyntheticTitin(n, 2).String() }},
		{"dna", "dna-unit", func(n int) string { return dnaTandem(n, 1) }},
		{"dna-paper", "paper-dna", func(n int) string { return dnaTandem(n, 3) }},
	} {
		for _, n := range []int{60, 80, 120, 160, 200, 250, 300, 350, 400, 600, 900, 1200, 1500, 2000} {
			s := in.gen(n)
			for _, lanes := range []int{1, 8, 16, 32, 0} {
				b.Run(fmt.Sprintf("%s/n=%d/lanes=%d", in.name, n, lanes), func(b *testing.B) {
					var cells int64
					for i := 0; i < b.N; i++ {
						rep, err := repro.Analyze("bench", s, repro.Options{Matrix: in.matrix, Lanes: lanes})
						if err != nil {
							b.Fatal(err)
						}
						cells = rep.Stats.Cells
					}
					b.ReportMetric(float64(cells), "cells/op")
				})
			}
		}
	}
}
