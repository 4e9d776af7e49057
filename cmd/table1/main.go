// Command table1 regenerates Table 1 of the paper: run times of the old
// (O(n^4)) and new (O(n^3)) sequential top-alignment algorithms on
// prefixes of a titin-like protein, and the resulting speedups.
//
// The paper measures lengths 1000-1800 with 50 top alignments on a
// 1 GHz Pentium III; the old algorithm at those lengths takes hours, so
// the default here uses scaled lengths (the complexity gap, not the
// absolute numbers, is the reproduced result — see EXPERIMENTS.md).
// Pass -lengths/-tops to go bigger, and -kernel gotoh to time the
// exhaustive-realignment baseline with the fast per-cell kernel instead
// of the Equation-1 scan kernel.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/oldalgo"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/topalign"
)

func main() {
	var (
		lengthsFlag = flag.String("lengths", "200,300,400,500,600", "comma-separated prefix lengths")
		tops        = flag.Int("tops", 10, "top alignments per run (paper: 50)")
		kernel      = flag.String("kernel", "naive", "old-algorithm kernel: naive (O(n^4)) or gotoh (O(tops*n^3))")
		seed        = flag.Uint64("seed", 1, "titin generator seed")
		skipOld     = flag.Bool("skip-old", false, "only time the new algorithm")
	)
	flag.Parse()

	var k oldalgo.Kernel
	switch *kernel {
	case "naive":
		k = oldalgo.KernelNaive
	case "gotoh":
		k = oldalgo.KernelGotoh
	default:
		fmt.Fprintln(os.Stderr, "table1: -kernel must be naive or gotoh")
		os.Exit(1)
	}

	lengths, err := parseLengths(*lengthsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	maxLen := lengths[len(lengths)-1]
	titin := seq.SyntheticTitin(maxLen, *seed)
	params := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

	fmt.Printf("Table 1: old vs new sequential algorithm, %d top alignments, titin-like prefixes\n", *tops)
	fmt.Printf("(old kernel: %s; paper columns: length, old(s), new(s), speedup)\n\n", k)
	fmt.Printf("%8s %12s %12s %10s\n", "length", "old (s)", "new (s)", "speedup")

	for _, n := range lengths {
		prefix := titin.Codes[:n]

		t0 := time.Now()
		// Table 1 compares algorithms: one matrix per task and the scalar
		// kernel on both sides (Table 2 is where SIMD enters).
		newRes, err := topalign.Find(prefix, topalign.Config{Params: params, NumTops: *tops, GroupLanes: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1: new:", err)
			os.Exit(1)
		}
		newSec := time.Since(t0).Seconds()

		if *skipOld {
			fmt.Printf("%8d %12s %12.3f %10s\n", n, "-", newSec, "-")
			continue
		}
		t0 = time.Now()
		oldRes, err := oldalgo.Find(prefix, oldalgo.Config{Params: params, NumTops: *tops, Kernel: k})
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1: old:", err)
			os.Exit(1)
		}
		oldSec := time.Since(t0).Seconds()

		if len(oldRes.Tops) != len(newRes.Tops) {
			fmt.Fprintf(os.Stderr, "table1: result mismatch at n=%d (%d vs %d tops)\n",
				n, len(oldRes.Tops), len(newRes.Tops))
			os.Exit(1)
		}
		for i := range newRes.Tops {
			if oldRes.Tops[i].Score != newRes.Tops[i].Score {
				fmt.Fprintf(os.Stderr, "table1: score mismatch at n=%d top %d\n", n, i+1)
				os.Exit(1)
			}
		}
		fmt.Printf("%8d %12.3f %12.3f %10.1f\n", n, oldSec, newSec, oldSec/newSec)
	}
	fmt.Println("\n(old and new algorithms verified to produce identical top alignments)")
}

func parseLengths(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	prev := 0
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 10 {
			return nil, fmt.Errorf("bad length %q", p)
		}
		if n <= prev {
			return nil, fmt.Errorf("lengths must be increasing")
		}
		prev = n
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no lengths given")
	}
	return out, nil
}
