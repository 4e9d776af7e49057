// Package obs is the observability layer. It holds the first of the
// repository's three instruments — the counter: a typed metrics registry
// of atomic counters, gauges, and bucketed latency histograms with a
// stable snapshot encoding, answering "how many" — and the one HTTP mount
// (Mount) through which every listener serves /metrics and /trace/{id},
// plus the opt-in debug listener that adds pprof. The other two
// instruments live in subpackages: spans (obs/trace: when, and how long)
// and per-request usage (obs/attrib: what it cost, derived from counters
// and one thread-clock read). Each fact is recorded once per instrument;
// there is no event log beside them (DESIGN.md section 8).
//
// The paper's evaluation (Sections 3 and 5) rests on instrumentation —
// realignment-avoidance percentages, speculation overhead, per-level
// speedups — and a production deployment needs the same numbers live.
// Package stats builds its engine counters on the primitives here;
// package cluster feeds per-rank dispatch counters and row-request
// latencies into a Registry.
//
// Every type is safe on a nil receiver, so instrumentation can be
// threaded through hot paths as optional pointers without branching at
// call sites.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the fixed bucket count of every Histogram: bucket
// i counts observations in [2^i, 2^(i+1)) nanoseconds (bucket 0 also
// absorbs zero and negative durations, the last bucket absorbs the
// tail), covering ~1ns to ~34s.
const HistogramBuckets = 35

// Histogram is a bucketed latency histogram with power-of-two bucket
// boundaries. The zero value is ready to use and all methods are safe
// for concurrent use.
//
// Observe increments the bucket before the count, and Snapshot loads
// the count before the buckets, so for any snapshot taken while
// writers are active sum(Buckets) >= Count holds — a snapshot is never
// torn the other way.
type Histogram struct {
	buckets   [HistogramBuckets]atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64 // total nanoseconds
	exemplars [HistogramBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one observed value in a histogram bucket to the trace
// that produced it, per the OpenMetrics exemplar model: a scrape of a
// slow bucket carries a trace ID that resolves via GET /trace/{id}.
// Each bucket keeps its most recent exemplar (last writer wins — recency
// beats a sampling scheme for "why is this bucket hot right now").
type Exemplar struct {
	TraceID string `json:"trace_id"`
	ValueNS int64  `json:"value_ns"`
	UnixMS  int64  `json:"unix_ms"`
}

// bucketFor maps a duration in nanoseconds to its bucket index.
func bucketFor(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveExemplar records one duration and tags its bucket with an
// exemplar naming the trace that produced the observation. An empty
// trace ID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	b := bucketFor(ns)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{
			TraceID: traceID,
			ValueNS: ns,
			UnixMS:  time.Now().UnixMilli(),
		})
	}
}

// ObserveN records n observations of d each, in one pass. Group kernels
// use it to attribute a group's wall time to its members so the
// histogram's count matches the alignment count and its mean stays a
// per-alignment figure.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if h == nil || n <= 0 {
		return
	}
	ns := d.Nanoseconds()
	h.buckets[bucketFor(ns)].Add(int64(n))
	h.count.Add(int64(n))
	h.sum.Add(ns * int64(n))
}

// Snapshot returns a point-in-time copy (zero snapshot for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, BucketExemplar{Bucket: i, Exemplar: *e})
		}
	}
	return s
}

// AddSnapshot folds a snapshot's counts into the live histogram (the
// inverse direction of Snapshot). Exemplars are not carried over — they
// decorate the scrape that observed them, not an aggregate. Nil-safe.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	for i, n := range s.Buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Exemplars
// are scrape-local decoration: Merge ignores them.
type HistogramSnapshot struct {
	Count     int64                   `json:"count"`
	Sum       int64                   `json:"sum_ns"` // total nanoseconds
	Buckets   [HistogramBuckets]int64 `json:"buckets"`
	Exemplars []BucketExemplar        `json:"exemplars,omitempty"`
}

// BucketExemplar is one bucket's exemplar in a snapshot.
type BucketExemplar struct {
	Bucket int `json:"bucket"`
	Exemplar
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Registry names metrics. Metrics may be created through the registry
// (Counter/Gauge/Histogram are get-or-create) or allocated elsewhere
// and bound under a name (Bind*), in which case the registry snapshot
// reads the live shared value — package stats binds its engine
// counters this way. All methods are safe on a nil receiver; the
// get-or-create accessors then return nil, which every metric method
// tolerates.
type Registry struct {
	mu     sync.Mutex
	caps   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		caps:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.caps[name]
	if c == nil {
		c = &Counter{}
		r.caps[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BindCounter registers an externally owned counter under name; the
// snapshot reads the shared value live. No-op when either side is nil.
func (r *Registry) BindCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.caps[name] = c
	r.mu.Unlock()
}

// BindGauge registers an externally owned gauge under name.
func (r *Registry) BindGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// BindHistogram registers an externally owned histogram under name.
func (r *Registry) BindHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of a registry, with a stable JSON
// encoding (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value (empty snapshot for
// nil).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.caps))
	for k, v := range r.caps {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in lexical order (for stable encodings).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
