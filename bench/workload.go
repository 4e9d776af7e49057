package main

import (
	"time"

	"repro"
	"repro/internal/seq"
	"repro/internal/serve"
)

// scale sizes the workloads. fullScale is the benchmark; tinyScale runs
// the same code in bench_test.go in well under a second per workload.
type scale struct {
	ExactDefaultLen  int // titin-like residues, library-default path
	ExactComposedLen int // titin-like residues, lanes 16 x workers C
	PrefilterLen     int // titin-like residues, balanced preset
	DNAUnit          int // tandem unit length
	DNACopies        int
	DNAFlank         int
	Tops             int // top alignments per batch analysis
	HotSet           int // pre-warmed requests of the serve workloads
	HotLen           int // residues per request
	HotTops          int
	MixedCache       int           // cache entries of serve-mixed
	Setups           int           // set-ups per run; setup_s is their median
	Window           time.Duration // serve measurement window
	RowBudget        time.Duration // time given to one kernel row
	Golden           bool          // seed 1 is held against golden.json
}

var fullScale = scale{
	ExactDefaultLen: 900, ExactComposedLen: 3000, PrefilterLen: 60000,
	DNAUnit: 150, DNACopies: 200, DNAFlank: 3000,
	Tops: 15, HotSet: 64, HotLen: 300, HotTops: 10, MixedCache: 256,
	Setups: 3, Window: time.Second, RowBudget: 300 * time.Millisecond,
	Golden: true,
}

var tinyScale = scale{
	ExactDefaultLen: 120, ExactComposedLen: 160, PrefilterLen: 2500,
	DNAUnit: 40, DNACopies: 20, DNAFlank: 200,
	Tops: 5, HotSet: 6, HotLen: 60, HotTops: 3, MixedCache: 48,
	Setups: 2, Window: 60 * time.Millisecond, RowBudget: 5 * time.Millisecond,
}

// runConfig is one invocation: the driver's four arguments plus the
// scale.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Scale   scale
}

// workload is one set of inputs the benchmark runs. Why is the line
// BENCHMARK.json carries.
type workload struct {
	Name string
	Why  string
	Run  func(cfg runConfig) *Run
}

// workloads lists the six workloads in the order the suite runs them.
func workloads() []workload {
	var out []workload
	for _, b := range batchWorkloads() {
		out = append(out, workload{b.Name, b.Why, b.run})
	}
	for _, s := range serveWorkloads() {
		out = append(out, workload{s.Name, s.Why, s.run})
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// familySize is the number of distinct inputs a batch workload has: a
// seed selects member (seed-1) mod familySize. With a finite family
// golden.json can hold, for every input the benchmark generates, the
// digest of its tops and the cell count solve_s is scaled by.
const familySize = 16

// member is the family member a seed selects, counted from 0; the
// generators are seeded with member+1, so seeds 1 to 16 are themselves.
func member(seed uint64) int { return int((seed - 1) % familySize) }

func batchWorkloads() []*batchWorkload {
	titin := func(n func(scale) int) func(scale, uint64) *seq.Sequence {
		return func(sc scale, seed uint64) *seq.Sequence {
			return seq.SyntheticTitin(n(sc), uint64(member(seed))+1)
		}
	}
	return []*batchWorkload{
		{
			Name:  "exact-default",
			Why:   "library defaults (sequential driver, scalar kernel): what every default caller and default /v1/analyze runs; bypasses multialign, parallel and seedindex",
			Input: titin(func(sc scale) int { return sc.ExactDefaultLen }),
			Opts:  func(sc scale, c int) repro.Options { return repro.Options{NumTops: sc.Tops} },
		},
		{
			Name:  "exact-composed",
			Why:   "the paper's headline configuration, SIMD x shared memory: int16x16 group kernel under parallel.Run with C workers, at n=3000 where two workers do scale",
			Input: titin(func(sc scale) int { return sc.ExactComposedLen }),
			Opts: func(sc scale, c int) repro.Options {
				return repro.Options{NumTops: sc.Tops, Lanes: 16, Workers: c}
			},
		},
		{
			Name:  "prefilter-protein",
			Why:   "balanced preset on 60k titin-like residues: 16384 small uniform windows through seedindex, RunWindows and scalar ScoreWindow; the exact kernels do no work",
			Input: titin(func(sc scale) int { return sc.PrefilterLen }),
			Opts: func(sc scale, c int) repro.Options {
				return repro.Options{NumTops: sc.Tops, Preset: "balanced"}
			},
		},
		{
			Name: "prefilter-dna",
			Why:  "balanced preset on a 33k DNA tandem array: k=10 seeds and a few thousand large ragged windows, so a change tuned to small uniform windows shows its cost",
			Input: func(sc scale, seed uint64) *seq.Sequence {
				return seq.Tandem(seq.TandemSpec{
					Alpha: seq.DNA, UnitLen: sc.DNAUnit, Copies: sc.DNACopies, FlankLen: sc.DNAFlank,
					Profile: seq.MutationProfile{SubstRate: 0.10, IndelRate: 0.01, IndelExt: 0.5},
					Seed:    uint64(member(seed)) + 1,
				})
			},
			Opts: func(sc scale, c int) repro.Options {
				return repro.Options{NumTops: sc.Tops, Matrix: "dna-unit", Preset: "balanced"}
			},
		},
	}
}

func serveWorkloads() []*serveWorkload {
	return []*serveWorkload{
		{
			Name:   "serve-warm",
			Why:    "C closed-loop clients pick among 64 pre-warmed requests over loopback HTTP: 100% cache hits, so only decode, key, queue hop, cache.Get and the response write run",
			Config: func(sc scale, c int) serve.Config { return serve.Config{Workers: c} },
		},
		{
			Name:      "serve-mixed",
			Why:       "same server with a 256-entry cache; every tenth request is a never-seen sequence, so compute, encode, cache.Add and eviction run beside the hits",
			MissEvery: 10,
			Config: func(sc scale, c int) serve.Config {
				return serve.Config{Workers: c, CacheEntries: sc.MixedCache}
			},
		},
	}
}
