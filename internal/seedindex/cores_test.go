package seedindex_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/scoring"
	"repro/internal/seedindex"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// The extend stage's helpers change who computes a window's first
// alignment, never what the run decides or counts: under GOMAXPROCS 1
// (no helpers: the loop computes every first alignment), 2 and 4, Find
// returns the same tops and the same work — alignments, realignments,
// cells, tracebacks, shadow ends, the tier mix, re-runs and wasted
// cells, everything Engine.Count records from a Work — on a protein
// input, and on a DNA input whose windows mostly saturate the byte rung
// (each such pass hands over to int16 and wastes its flagged row).
// Each setting runs a few times, since which windows a helper gets to
// first is up to the scheduler. CI runs it under -race.
func TestExtendSameOnEveryCore(t *testing.T) {
	dna := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: 16, FlankLen: 300,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.01, IndelExt: 0.5}, Seed: 2})
	for _, in := range []struct {
		name  string
		codes []byte
		p     align.Params
		base  int
	}{
		{"titin-6000", seq.SyntheticTitin(6000, 1).Codes, align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}, 20},
		{"dna-tandem", dna.Codes, align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}, 4},
	} {
		cfg, err := seedindex.PresetConfig(seedindex.PresetBalanced, in.base)
		if err != nil {
			t.Fatal(err)
		}
		run := func(procs int) (*topalign.Result, stats.Snapshot) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, _, err := seedindex.Find(in.codes, cfg, topalign.Config{Params: in.p, NumTops: 15, Counters: &stats.Counters{}})
			if err != nil {
				t.Fatal(err)
			}
			work := res.Stats
			// timing, and the helpers' own tally, are not the run's work
			work.AlignLatency = obs.HistogramSnapshot{Count: work.AlignLatency.Count}
			work.CPUNanos, work.SpecWaste = 0, 0
			return res, work
		}
		want, wantWork := run(1)
		if wantWork.TierAlignments[align.TierU8x32]+wantWork.TierReruns == 0 && align.ActiveTier() >= align.TierU8x32 {
			t.Errorf("%s: no window tried the byte rung: %v", in.name, wantWork.TierAlignments)
		}
		if (wantWork.TierReruns > 0) != (wantWork.WastedCells > 0) {
			t.Errorf("%s: %d hand-overs threw away %d cells: a flagged pass wastes its flagged row", in.name, wantWork.TierReruns, wantWork.WastedCells)
		}
		for _, procs := range []int{2, 4} {
			for rep := 0; rep < 3; rep++ {
				where := fmt.Sprintf("%s GOMAXPROCS=%d #%d", in.name, procs, rep)
				got, gotWork := run(procs)
				if !reflect.DeepEqual(got.Tops, want.Tops) {
					t.Errorf("%s: tops differ from the helper-free loop's", where)
				}
				if !reflect.DeepEqual(gotWork, wantWork) {
					t.Errorf("%s: work\n got %+v\nwant %+v", where, gotWork, wantWork)
				}
			}
		}
	}
}

// The chain stage splits its walks and its sweep across the cores no
// other engine goroutine holds: GOMAXPROCS 1 runs one part, 2 and 4 run
// two and four. Scan reports the same statistics — pairs, segments,
// clusters, candidates, window cells — whatever the split, on a protein
// and a DNA input over the split threshold. CI runs it under -race.
func TestScanSameOnEveryCore(t *testing.T) {
	dna := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: 120, FlankLen: 1000,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.01, IndelExt: 0.5}, Seed: 2})
	for _, in := range []struct {
		name   string
		codes  []byte
		matrix *scoring.Matrix
	}{
		{"titin-20000", seq.SyntheticTitin(20000, 1).Codes, scoring.BLOSUM62},
		{"dna-tandem", dna.Codes, scoring.DNAUnit},
	} {
		cfg, err := seedindex.PresetConfig(seedindex.PresetBalanced, seq.PrimaryLetters(in.matrix.Alphabet()))
		if err != nil {
			t.Fatal(err)
		}
		run := func(procs int) *seedindex.Stats {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			st, err := seedindex.Scan(in.codes, cfg, in.matrix.MaxScore())
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		want := run(1)
		if want.Positions < 1<<14 {
			t.Fatalf("%s: %d indexed positions, under the split threshold", in.name, want.Positions)
		}
		for _, procs := range []int{2, 4} {
			if got := run(procs); *got != *want {
				t.Errorf("%s GOMAXPROCS=%d: stats\n got %+v\nwant %+v", in.name, procs, *got, *want)
			}
		}
	}
}

// The chain's workers are visible: under GOMAXPROCS 2 a traced Find
// records one span per phase of the second part — count, place, sweep —
// under its prefilter.chain span, stamped with the run's rank, and under
// GOMAXPROCS 1 none.
func TestChainWorkersTraced(t *testing.T) {
	s := seq.SyntheticTitin(20000, 1).Codes
	cfg, err := seedindex.PresetConfig(seedindex.PresetBalanced, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			col := trace.NewCollector(0, 0)
			id := trace.NewTraceID()
			top := topalign.Config{Params: align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap},
				NumTops: 1, Spans: col.Rec(id), SpanRank: 3}
			if _, _, err := seedindex.Find(s, cfg, top); err != nil {
				t.Fatal(err)
			}
			spans, _, _ := col.Get(id)
			var chain trace.SpanID
			for _, sp := range spans {
				if sp.Name == "prefilter.chain" {
					chain = sp.ID
				}
			}
			workers := map[string]int{}
			for _, sp := range spans {
				if strings.HasPrefix(sp.Name, "prefilter.chain.") {
					if sp.Parent != chain || sp.Rank != 3 || sp.Arg != 1 {
						t.Errorf("GOMAXPROCS=%d: %s span parent %v rank %d part %d, want parent %v rank 3 part 1",
							procs, sp.Name, sp.Parent, sp.Rank, sp.Arg, chain)
					}
					workers[sp.Name]++
				}
			}
			want := map[string]int{}
			if procs == 2 {
				want = map[string]int{"prefilter.chain.count": 1, "prefilter.chain.place": 1, "prefilter.chain.sweep": 1}
			}
			if !reflect.DeepEqual(workers, want) {
				t.Errorf("GOMAXPROCS=%d: chain worker spans %v, want %v", procs, workers, want)
			}
		}()
	}
}
