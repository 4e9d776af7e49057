// Command claims verifies the paper's quantitative side claims in one
// run and prints a pass/fail table: the Section 3 realignment-avoidance
// band (90-97%), the Section 5.2 speculation-overhead bound (<= 8.4%),
// the 3-10% per-round realignment fraction, and the equivalence of every
// engine (group, striped, parallel strict, cluster strict, old
// algorithm) with the sequential reference.
//
//	go run ./cmd/claims [-length 600] [-tops 20]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/dessim"
	"repro/internal/oldalgo"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

var failed bool

func main() {
	var (
		length = flag.Int("length", 600, "titin-like sequence length")
		tops   = flag.Int("tops", 20, "top alignments")
		seed   = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()

	s := seq.SyntheticTitin(*length, *seed).Codes
	params := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	fmt.Printf("claims: titin-like n=%d, %d top alignments\n\n", *length, *tops)

	// sequential reference + its counters; the paper's work counts are
	// per matrix, so the counted runs pin one matrix per task
	seqC := &stats.Counters{}
	ref, err := topalign.Find(s, topalign.Config{Params: params, NumTops: *tops, GroupLanes: 1, Counters: seqC})
	if err != nil {
		fatal(err)
	}
	if len(ref.Tops) != *tops {
		fatal(fmt.Errorf("only %d top alignments found; lower -tops", len(ref.Tops)))
	}

	// claim 1: Section 3, realignments avoided 90-97%
	red := 100 * seqC.Snapshot().RealignmentReduction(len(s)-1, len(ref.Tops))
	check("S3  realignments avoided by queue heuristic", fmt.Sprintf("%.1f%%", red),
		"90-97% (paper)", red >= 85)

	// claim 2: Section 5.2, 3-10% of matrices realign per round
	trace, err := dessim.Record(s, topalign.Config{Params: params, NumTops: *tops})
	if err != nil {
		fatal(err)
	}
	perRound := 0.0
	for _, rd := range trace.Rounds[1:] {
		perRound += float64(len(rd.Tasks))
	}
	perRound = 100 * perRound / float64(len(trace.Rounds)-1) / float64(len(s)-1)
	check("S5.2 matrices realigned per top alignment", fmt.Sprintf("%.1f%%", perRound),
		"3-10% (paper)", perRound <= 15)

	// claim 3: Section 5.2, speculation overhead <= 8.4%
	parC := &stats.Counters{}
	if _, err := parallel.Find(s, topalign.Config{Params: params, NumTops: *tops, GroupLanes: 1, Counters: parC},
		parallel.Config{Workers: 8, Speculative: true}); err != nil {
		fatal(err)
	}
	overhead := 100 * float64(parC.Snapshot().Alignments-seqC.Snapshot().Alignments) /
		float64(seqC.Snapshot().Alignments)
	check("S5.2 speculative scheduler extra alignments", fmt.Sprintf("%+.1f%%", overhead),
		"<= 8.4% (paper)", overhead <= 8.4)

	// claim 4: engine equivalence (bit-identical top alignments)
	same := func(r *topalign.Result, err error) bool {
		if err != nil || len(r.Tops) != len(ref.Tops) {
			return false
		}
		for i := range ref.Tops {
			if r.Tops[i].Score != ref.Tops[i].Score || r.Tops[i].Split != ref.Tops[i].Split {
				return false
			}
		}
		return true
	}
	group, gerr := topalign.Find(s, topalign.Config{Params: params, NumTops: *tops, GroupLanes: 4})
	check("S4.1 group mode (4 lanes) equivalence", verdict(same(group, gerr)), "identical", same(group, gerr))
	striped := true
	for r := 1; r < len(s) && striped; r++ {
		// 64 columns per stripe, so every split wider than that is striped
		striped = slices.Equal(align.ScoreStriped(params, s[:r], s[r:], nil, r, 64), align.Score(params, s[:r], s[r:]))
	}
	check("S4.1 striped kernel equivalence", verdict(striped), "identical", striped)
	par, perr := parallel.Find(s, topalign.Config{Params: params, NumTops: *tops},
		parallel.Config{Workers: 4})
	check("S4.2 shared-memory strict equivalence", verdict(same(par, perr)), "identical", same(par, perr))
	clu, cerr := cluster.RunLocal(s, cluster.Config{Top: topalign.Config{Params: params, NumTops: *tops}},
		cluster.LocalSpec{Slaves: 2, ThreadsPerSlave: 2})
	check("S4.3 cluster strict equivalence", verdict(same(clu, cerr)), "identical", same(clu, cerr))
	old, oerr := oldalgo.Find(s, oldalgo.Config{Params: params, NumTops: *tops, Kernel: oldalgo.KernelGotoh})
	check("old algorithm produces identical output", verdict(same(old, oerr)), "identical", same(old, oerr))

	if failed {
		fmt.Println("\nsome claims FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall claims hold")
}

func check(name, got, want string, ok bool) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		failed = true
	}
	fmt.Printf("  [%s] %-45s %-10s (expect %s)\n", mark, name, got, want)
}

func verdict(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIFFERS"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "claims:", err)
	os.Exit(1)
}
