package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Value is one metric of one run: the median of N samples taken inside
// the run, and their inter-quartile spread as a share of that median.
// AliasOf names the metric a value restates in another unit (see
// endToEnd); -compare and -repeat leave such rows out.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n"`
	Spread  float64 `json:"spread"`
	AliasOf string  `json:"alias_of,omitempty"`
}

// Run is the result document of one workload run. The driver reads the
// short form printed as the last line of standard output; the suite,
// -repeat and -compare read this one.
type Run struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Env       Env              `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []string         `json:"checks"`
	Errors    []string         `json:"errors,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	// Aux holds figures printed for the reader and judged by no one: the
	// unscaled values behind serve-warm's metrics and its reference.
	Aux map[string]Value `json:"aux,omitempty"`
}

// fail records a failed operation; only the first few messages are kept.
func (r *Run) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// checked records that a correctness check ran (once per name).
func (r *Run) checked(name string) {
	for _, c := range r.Checks {
		if c == name {
			return
		}
	}
	r.Checks = append(r.Checks, name)
}

// metricDef declares a metric: BENCHMARK.json carries the same list and
// bench_test.go holds the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The end-to-end metrics, named as the issue names them. fail_frac is
// not among them because the driver wants no metric that reads 0: it is
// failed/attempted of the result line.
//
// The driver makes every workload print every one of them, none 0 and no
// time the same on every run. The serve workloads measure all seven. A
// batch workload has one kind of operation and no cache, so it measures
// setup_s and solve_s and restates solve_s where a metric does not apply
// to it: rps as analyses per second (1/solve_s), the four latencies as
// the analysis in milliseconds. Those values carry AliasOf.
//
// solve_s on a batch workload is the wall time of one repro.Analyze
// scaled to the size of the seed-1 input by cell counts frozen in
// golden.json (see refScale): the raw time follows the number of
// realignments an input happens to need (0.93-1.33 s over ten seeds on
// exact-default), the time per frozen cell does not. Peak memory is a
// per-layer metric (proc.peak_rss_mb): it moved 9-15% from seed to seed
// with the garbage collector's pacing, too much to bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"rps", "1/s", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p99_ms", "ms", "lower"},
	{"miss_p50_ms", "ms", "lower"},
	{"miss_p95_ms", "ms", "lower"},
}

// The per-layer metrics of the traced pass, layer = package name. A
// workload reports 0 for a layer that is not on its path.
var perLayer = []metricDef{
	{"multialign.scalar.cells_per_s", "1/s", "higher"},
	{"multialign.int32x8.cells_per_s", "1/s", "higher"},
	{"multialign.int16x16.cells_per_s", "1/s", "higher"},
	{"multialign.int16x16.rerun_frac", "ratio", "lower"},
	{"multialign.mallocs_per_call", "count", "lower"},

	{"align.score.cells_per_s", "1/s", "higher"},
	{"align.window.cells_per_s", "1/s", "higher"},
	{"align.traceback.us", "us", "lower"},

	{"topalign.l1.solve_s", "s", "lower"},
	{"topalign.l16.solve_s", "s", "lower"},
	{"topalign.l1.cells_per_s", "1/s", "higher"},
	{"topalign.l16.cells_per_s", "1/s", "higher"},
	{"topalign.l1.efficiency", "ratio", "higher"},
	{"topalign.l16.efficiency", "ratio", "higher"},
	{"topalign.alignments", "count", "lower"},
	{"topalign.realignments", "count", "lower"},
	{"topalign.realign_reduction", "ratio", "higher"},
	{"topalign.l16.extra_cells_frac", "ratio", "lower"},
	{"topalign.new_engine.s", "s", "lower"},
	{"topalign.windows.s", "s", "lower"},

	{"parallel.l16.solve_s", "s", "lower"},
	{"parallel.l16.speedup", "ratio", "higher"},
	{"parallel.l16.cells_per_cpu_s", "1/s", "higher"},
	{"parallel.spec_overhead", "ratio", "lower"},

	{"cluster.l16.solve_s", "s", "lower"},
	{"cluster.l16.cells_per_cpu_s", "1/s", "higher"},
	{"cluster.mallocs_per_align", "count", "lower"},

	{"seedindex.index.s", "s", "lower"},
	{"seedindex.chain.s", "s", "lower"},
	{"seedindex.candidates.s", "s", "lower"},
	{"seedindex.extend.s", "s", "lower"},
	{"seedindex.extend.cells_per_s", "1/s", "higher"},
	{"seedindex.extend.efficiency", "ratio", "higher"},
	{"seedindex.candidates", "count", "lower"},
	{"seedindex.pairs", "count", "lower"},
	{"seedindex.dropped_kmers", "count", "lower"},
	{"seedindex.window_frac", "ratio", "lower"},
	{"seedindex.cells_per_window", "count", "lower"},

	{"repeats.delineate.s", "s", "lower"},

	{"repro.solve_s", "s", "lower"},
	{"repro.cells", "count", "lower"},
	{"repro.cells_per_s", "1/s", "higher"},
	{"repro.overhead.s", "s", "lower"},

	{"serve.handler_hit.us", "us", "lower"},
	{"serve.handler_miss.ms", "ms", "lower"},
	{"serve.miss_overhead.ms", "ms", "lower"},
	{"serve.key.us", "us", "lower"},
	{"serve.cpu_us_per_hit", "us", "lower"},
	{"serve.resp_bytes", "count", "lower"},
	{"serve.shed_frac", "ratio", "lower"},
	{"serve.net_share", "ratio", "lower"},

	{"cache.get.ns", "ns", "lower"},
	{"cache.add.ns", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},

	{"shard.hop.ms", "ms", "lower"},
	{"shard.ring_lookup.ns", "ns", "lower"},

	{"proc.cpu_s", "s", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.alloc_mb_per_op", "MB", "lower"},
	{"proc.mallocs_per_op", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},

	{"trace.spans", "count", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// metricSet is what a run reports: the end-to-end metrics untraced, the
// per-layer metrics traced.
func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// setMetrics fills r.Metrics with every declared metric of the run's
// pass, taking the measured ones from got and reporting 0 for the rest.
// A measured name that is not declared is a bug in the benchmark.
func (r *Run) setMetrics(got map[string]Value) {
	r.Metrics = make(map[string]Value)
	for _, d := range metricSet(r.Trace) {
		v := got[d.Name]
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
		delete(got, d.Name)
	}
	for name := range got {
		r.fail("benchmark bug: metric %q is measured but not declared", name)
	}
}

// specPath is BENCHMARK.json seen from the benchmark's own directory,
// where `go run -C bench .` starts the program.
const specPath = "../BENCHMARK.json"

// spec is the part of BENCHMARK.json the benchmark itself reads: the
// metric lists (held equal to the ones above by bench_test.go) and the
// regression bounds -compare and -repeat judge by.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec() (*spec, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// bound is the regression bound and direction of an end-to-end metric.
type bound struct {
	Share  float64 // share of the old median the metric may worsen by
	Higher bool    // higher is better
}

func (s *spec) bounds() map[string]bound {
	m := make(map[string]bound)
	for _, e := range s.EndToEnd {
		m[e.Name] = bound{e.Bound, e.Better == "higher"}
	}
	return m
}
