// Command table2 regenerates Table 2 of the paper: maximum alignment
// times for the conventional kernel versus the SIMD group kernels. The
// paper's "SSE" column computes 4 matrices per register and "SSE2" 8;
// here the rungs are the kernel-tier ladder of internal/multialign —
// int32x8 (8 exact lanes per AVX2 register, the SSE2 analogue) and
// int16x16 (16 saturating lanes, twice the width the paper had).
//
// The paper's column "3.0 / 4" reads "three seconds to align four
// sequence pairs"; the table here prints the same shape plus the derived
// speed improvement (time for W conventional alignments / group time).
// It also reports the cache-aware striping effect of Section 5.1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/scoring"
	"repro/internal/seq"
)

func main() {
	var (
		length = flag.Int("length", 3000, "titin-like sequence length (paper: 34350)")
		reps   = flag.Int("reps", 3, "timing repetitions (best is reported)")
		seed   = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	titin := seq.SyntheticTitin(*length, *seed)
	s := titin.Codes
	m := len(s)
	r := m / 2 // the largest matrix, as in the paper's 17175x17175
	params := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

	fmt.Printf("Table 2: maximum alignment times, split %d of a %d-residue titin-like protein\n\n", r, m)

	// conventional: one scalar matrix — the Go row, not align's vector row
	// kernel, which would make this column a SIMD one too
	active := align.ActiveTier()
	if err := multialign.SetKernelTier(multialign.TierScalar.String()); err != nil {
		fatal(err)
	}
	asc := align.NewScratch()
	conv := best(*reps, func() {
		asc.Score(params, s[:r], s[r:])
	})
	cells := float64(r) * float64(m-r)
	fmt.Printf("%-14s %8.2f ms /  1 matrix   (%.0fM cells/s)\n",
		"conventional", ms(conv), cells/conv.Seconds()/1e6)

	// vector rungs: the group centred on the largest split, forced to
	// each tier the host (and REPRO_KERNEL_TIER) allows
	gsc := multialign.NewScratch()
	for _, rung := range []struct {
		tier  multialign.Tier
		lanes int
		paper string
	}{
		{multialign.TierInt32x8, 8, "SSE2, 8 lanes: 9.8x"},
		{multialign.TierInt16x16, 16, "no 16-lane column; SSE, 4 lanes: 6.9x on P3, 6.0x on P4"},
	} {
		if rung.tier > active {
			continue
		}
		if err := multialign.SetKernelTier(rung.tier.String()); err != nil {
			fatal(err)
		}
		r0 := r - rung.lanes/2
		dur := best(*reps, func() {
			g, err := gsc.ScoreGroupAuto(params, s, r0, rung.lanes, nil)
			if err != nil {
				fatal(err)
			}
			if g.Tier != rung.tier {
				fatal(fmt.Errorf("group served by tier %s, want %s (int16 saturation at length %d? lower -length)", g.Tier, rung.tier, m))
			}
		})
		fmt.Printf("%-14s %8.2f ms / %2d matrices (speed improvement %.2fx; paper: %s)\n",
			rung.tier, ms(dur), rung.lanes,
			conv.Seconds()*float64(rung.lanes)/dur.Seconds(), rung.paper)
	}
	if active == multialign.TierScalar {
		fmt.Printf("(vector tiers unavailable: detected tier %s, active tier %s)\n", multialign.DetectedTier(), active)
	}

	// cache-aware striping (Section 5.1): striped vs row-wise scalar
	if err := multialign.SetKernelTier(multialign.TierScalar.String()); err != nil {
		fatal(err)
	}
	fmt.Println()
	striped := best(*reps, func() {
		asc.ScoreStriped(params, s[:r], s[r:], nil, r, 0)
	})
	fmt.Printf("%-14s %8.2f ms /  1 matrix   (%.2fx vs row-wise; paper: ~1.16x scalar, up to 6.5x SIMD)\n",
		"striped scalar", ms(striped), conv.Seconds()/striped.Seconds())
}

// best runs f reps times and returns the fastest wall time.
func best(reps int, f func()) time.Duration {
	bestD := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "table2:", err)
	os.Exit(1)
}
