package topalign_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/dessim"
	"repro/internal/obs"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// realignEvent is one OnRealign call as the loop reports it.
type realignEvent struct {
	R, Tops, AlignedWith int
	Score                int32
}

// The exact loop runs alone on any number of cores (the multi-core
// scheduler of exact runs is package parallel): under GOMAXPROCS 1, 2 and
// 4, at one, eight and sixteen lanes, on a protein and a DNA input, Run
// starts no helper — it bills no helper CPU and wastes no result — and
// returns the same tops, the same work counters (everything but latency),
// the same OnRealign sequence and the same dessim trace. The callback
// also checks that it is called on a task already updated by its
// (re)alignment, and that when the loop stores a first alignment's rows
// the task it pops next has stored none yet. Each setting runs a few
// times. CI runs it under -race.
func TestExactSameOnEveryCore(t *testing.T) {
	protein := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	dna := align.Params{Exch: scoring.DNAUnit, Gap: scoring.DefaultGap(scoring.DNAUnit)}
	tandem := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 40, Copies: 10, FlankLen: 60,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.01, IndelExt: 0.5}, Seed: 3})
	reps := 3
	if testing.Short() {
		reps = 1
	}
	const tops = 12
	for _, in := range []struct {
		name  string
		codes []byte
		p     align.Params
	}{
		{"titin-700", seq.SyntheticTitin(700, 1).Codes, protein},
		{"dna-tandem", tandem.Codes, dna},
	} {
		for _, lanes := range []int{1, 8, 16} {
			run := func(procs int) (*topalign.Result, stats.Snapshot, []realignEvent) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var events []realignEvent
				var e *topalign.Engine
				cfg := topalign.Config{Params: in.p, NumTops: tops, GroupLanes: lanes, Counters: &stats.Counters{}}
				cfg.OnRealign = func(task *topalign.Task, k int) {
					events = append(events, realignEvent{task.R, k, task.AlignedWith, task.Score})
					if task.AlignedWith != k && task.AlignedWith != 0 {
						t.Errorf("%s lanes %d GOMAXPROCS %d: OnRealign(r=%d, %d tops) on a task stamped %d", in.name, lanes, procs, task.R, k, task.AlignedWith)
					}
					if next := task.R + lanes; k == 0 && next < len(in.codes) {
						if row, _ := e.OrigRows().Get(next); row != nil {
							t.Errorf("%s lanes %d GOMAXPROCS %d: split %d's row stored before the loop took its task", in.name, lanes, procs, next)
						}
					}
				}
				var err error
				if e, err = topalign.NewEngine(in.codes, cfg); err != nil {
					t.Fatal(err)
				}
				if err := topalign.Run(e, topalign.InitialQueue(e), topalign.NewScratch()); err != nil {
					t.Fatal(err)
				}
				res := e.Result()
				work := res.Stats
				if work.SpecWaste != 0 || work.CPUNanos != 0 {
					t.Errorf("%s lanes %d GOMAXPROCS %d: %d results wasted, %d ns of helper CPU; the exact loop starts no helper", in.name, lanes, procs, work.SpecWaste, work.CPUNanos)
				}
				work.AlignLatency = obs.HistogramSnapshot{Count: work.AlignLatency.Count} // timing is not the run's work
				return res, work, events
			}
			want, wantWork, wantEvents := run(1)
			if wantWork.Realignments == 0 || len(want.Tops) != tops {
				t.Fatalf("%s lanes %d: %d tops, %d realignments prove nothing", in.name, lanes, len(want.Tops), wantWork.Realignments)
			}
			for _, procs := range []int{1, 2, 4} {
				for rep := 0; rep < reps; rep++ {
					where := fmt.Sprintf("%s lanes %d GOMAXPROCS=%d #%d", in.name, lanes, procs, rep)
					got, gotWork, gotEvents := run(procs)
					if !reflect.DeepEqual(got.Tops, want.Tops) {
						t.Errorf("%s: tops differ from the one-core loop's", where)
					}
					if !reflect.DeepEqual(gotWork, wantWork) {
						t.Errorf("%s: work\n got %+v\nwant %+v", where, gotWork, wantWork)
					}
					if !reflect.DeepEqual(gotEvents, wantEvents) {
						t.Errorf("%s: %d OnRealign calls differ from the one-core loop's %d", where, len(gotEvents), len(wantEvents))
					}
				}
			}
		}
		record := func(procs int) *dessim.Trace {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr, err := dessim.Record(in.codes, topalign.Config{Params: in.p, NumTops: tops})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		want := record(1)
		for _, procs := range []int{2, 4} {
			if got := record(procs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: dessim trace under GOMAXPROCS %d differs from the one-core loop's", in.name, procs)
			}
		}
	}
}
