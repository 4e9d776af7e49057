// Package serve is the analysis serving layer: the front door that
// turns the one-shot engines (sequential, shared-memory parallel,
// in-process cluster) into a daemon fit for sustained traffic.
//
// The pipeline is admission -> queue -> worker pool -> cache -> engine:
//
//   - a bounded admission queue gives the server a hard memory and
//     latency envelope; when it is full, requests are shed immediately
//     with 429 + Retry-After rather than queued without bound;
//   - every request carries a deadline; a request whose deadline
//     expires while queued is dropped by the worker without running the
//     engine (the work would be wasted — the client is gone);
//   - a content-addressed LRU cache (internal/cache) keyed by
//     SHA-256(sequence) + canonicalised parameters serves repeated
//     analyses without touching the engine, and its singleflight
//     collapses concurrent identical requests into one engine run;
//   - graceful drain: on SIGTERM the daemon stops admitting, finishes
//     every queued request, and only then exits.
//
// Everything is wired into internal/obs: queue-depth gauge, admit /
// shed-by-cause / completed counters, cache hit/miss/shared/evict
// counters, admission-wait and end-to-end latency histograms whose
// exemplars name a trace, and a request / queue.wait / cache.* span tree
// per request, so a production incident can be followed request by
// request. DESIGN.md section 9 describes the architecture.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/multialign"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/stats"
)

// Config sizes a Server. The zero value is usable: it serves with
// GOMAXPROCS workers, a queue of 4x that, a 30-second default
// deadline, and a 256-entry cache.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = 4*Workers).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does
	// not carry one (0 = 30s). Client-requested deadlines are capped at
	// the larger of this and minTimeoutCap.
	DefaultTimeout time.Duration
	// MaxSequenceLen rejects oversized sequences at admission
	// (0 = 100000 residues; the engine is O(n^3)).
	MaxSequenceLen int
	// CacheEntries sizes the result LRU (0 = cache.DefaultCapacity,
	// negative disables caching).
	CacheEntries int
	// CacheBytes bounds the result LRU by stored bytes
	// (0 = cache.DefaultMaxBytes). Entries are pre-encoded report JSON
	// whose sizes span orders of magnitude, so the entry-count bound
	// alone does not bound memory.
	CacheBytes int64
	// Metrics receives serving telemetry under the serve/ and cache/
	// namespaces; may be nil.
	Metrics *obs.Registry
	// Traces, when non-nil, stores per-request span traces. POST
	// /v1/analyze then honours an incoming W3C traceparent header (or
	// starts a fresh trace), answers with X-Trace-Id, and GET
	// /trace/{id} serves the finished trace as a span tree.
	Traces *trace.Collector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxSequenceLen == 0 {
		c.MaxSequenceLen = 100000
	}
	return c
}

// minTimeoutCap is the least cap on a client-requested deadline.
const minTimeoutCap = 2 * time.Minute

// deadline is the timeout of a request carrying timeoutMS (0 = the
// default deadline), capped at max(minTimeoutCap, DefaultTimeout) so a
// daemon started with a long default deadline keeps it.
func (c Config) deadline(timeoutMS int) time.Duration {
	timeout := c.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return min(timeout, max(minTimeoutCap, c.DefaultTimeout))
}

// Server is the serving layer. Create with New, start the worker pool
// with Start, expose Handler over HTTP, stop with Drain.
type Server struct {
	cfg   Config
	cache *cache.Cache
	queue chan *job

	// draining is read lock-free on hot and health paths. The write
	// side still serialises with admitMu: Drain sets the flag, then
	// takes admitMu exclusively so every in-flight admit (which holds
	// the read lock across its queue send) finishes before the queue
	// is closed — the flag alone cannot order "send on queue" against
	// "close(queue)".
	admitMu  sync.RWMutex
	draining atomic.Bool

	wg sync.WaitGroup

	// metrics (all nil-safe when cfg.Metrics is nil)
	requests      *obs.Counter
	admitted      *obs.Counter
	completed     *obs.Counter
	errored       *obs.Counter
	shedQueueFull *obs.Counter
	shedDeadline  *obs.Counter
	shedDraining  *obs.Counter
	queueDepth    *obs.Gauge
	admissionNS   *obs.Histogram
	e2eNS         *obs.Histogram
	engineNS      *obs.Histogram

	// Resource attribution (DESIGN.md §16): per-request usage
	// histograms and the attributed-CPU total reprostat reconciles
	// against proc/cpu_ns.
	usageCPUNS    *obs.Histogram
	usageCells    *obs.Histogram
	usageAllocB   *obs.Histogram
	usageQueueNS  *obs.Histogram
	attribCPU     *obs.Counter
	cacheBytesIn  *obs.Counter    // report bytes served from cache (reads)
	cacheBytesOut *obs.Counter    // report bytes written to cache
	engineCtrs    *stats.Counters // lifetime engine/ counters, folded per run
}

// New builds a server; call Start before serving requests.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),

		requests:      cfg.Metrics.Counter("serve/requests"),
		admitted:      cfg.Metrics.Counter("serve/admitted"),
		completed:     cfg.Metrics.Counter("serve/completed"),
		errored:       cfg.Metrics.Counter("serve/errors"),
		shedQueueFull: cfg.Metrics.Counter("serve/shed_queue_full"),
		shedDeadline:  cfg.Metrics.Counter("serve/shed_deadline"),
		shedDraining:  cfg.Metrics.Counter("serve/shed_draining"),
		queueDepth:    cfg.Metrics.Gauge("serve/queue_depth"),
		admissionNS:   cfg.Metrics.Histogram("serve/admission_wait_ns"),
		e2eNS:         cfg.Metrics.Histogram("serve/e2e_ns"),
		engineNS:      cfg.Metrics.Histogram("serve/engine_ns"),

		usageCPUNS:    cfg.Metrics.Histogram("serve/usage_cpu_ns"),
		usageCells:    cfg.Metrics.Histogram("serve/usage_cells"),
		usageAllocB:   cfg.Metrics.Histogram("serve/usage_alloc_bytes"),
		usageQueueNS:  cfg.Metrics.Histogram("serve/usage_queue_wait_ns"),
		attribCPU:     cfg.Metrics.Counter("serve/attrib_cpu_ns"),
		cacheBytesIn:  cfg.Metrics.Counter("serve/cache_bytes_read"),
		cacheBytesOut: cfg.Metrics.Counter("serve/cache_bytes_written"),
		engineCtrs:    &stats.Counters{},
	}
	// One lifetime engine counter set, bound once: every engine run
	// folds its per-run snapshot in (repro.Options.Counters), so the
	// exported engine/ series are cumulative — the denominators
	// reprostat reconciles attributed CPU against.
	s.engineCtrs.Bind(cfg.Metrics)
	// SIMD diagnostics, stamped once at construction: the group-kernel
	// tier ladder ordinal (0 scalar, 1 int32x8, 2 int16x16) plus a
	// one-hot gauge per tier name, so /metrics consumers can match on
	// names without decoding ordinals.
	cfg.Metrics.Gauge("engine/kernel_tier").Set(int64(multialign.DetectedTier()))
	cfg.Metrics.Gauge("engine/kernel_tier/" + multialign.DetectedTier().String()).Set(1)
	if cfg.CacheEntries >= 0 {
		s.cache = cache.NewSized(cfg.CacheEntries, cfg.CacheBytes)
		s.cache.Bind(cfg.Metrics)
	}
	return s
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops admission (new requests are shed with 503), lets the
// workers finish every queued request, and returns when the pool has
// wound down or ctx expires. It is the SIGTERM path: nothing admitted
// is abandoned.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: already draining")
	}
	// Flush in-flight admits: each one holds the read lock across its
	// queue send, so acquiring the write lock here guarantees nobody
	// is mid-send when the queue closes.
	s.admitMu.Lock()
	s.admitMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(s.queue)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// job is one admitted request travelling through the queue.
type job struct {
	req      *Request
	ctx      context.Context
	enqueued time.Time
	done     chan jobResult // buffered: the worker never blocks on delivery

	// Tracing (all nil/zero when the request is untraced). qspan is the
	// queue.wait span: started at admission, ended by whichever side
	// takes the job off the queue — the channel handoff orders the two.
	rec   *trace.Recorder
	root  trace.SpanID
	qspan *trace.Active
}

type jobResult struct {
	report  []byte // pre-encoded repro.Report JSON
	outcome cache.Outcome
	usage   *attrib.Usage // per-request attribution (nil on error)
	err     error
}

// shedCause says why a request was turned away.
type shedCause uint8

const (
	causeQueueFull shedCause = iota + 1 // admission queue at capacity (429)
	causeDeadline                       // deadline expired before a worker picked it up
	causeDraining                       // server draining, no longer admitting (503)
)

// recordShed counts a shed request under its cause.
func (s *Server) recordShed(cause shedCause) {
	switch cause {
	case causeQueueFull:
		s.shedQueueFull.Inc()
	case causeDeadline:
		s.shedDeadline.Inc()
	case causeDraining:
		s.shedDraining.Inc()
	}
}

// admit places a job on the queue, or reports the shed cause.
func (s *Server) admit(j *job) (ok bool, cause shedCause) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return false, causeDraining
	}
	select {
	case s.queue <- j:
		s.admitted.Inc()
		s.queueDepth.Add(1)
		return true, 0
	default:
		return false, causeQueueFull
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.Add(-1)
		s.admissionNS.Observe(time.Since(j.enqueued))
		j.qspan.End()
		if j.ctx.Err() != nil {
			// The deadline expired while queued; the client has given
			// up, so running the engine would be pure waste.
			s.recordShed(causeDeadline)
			j.done <- jobResult{err: j.ctx.Err()}
			continue
		}
		qwait := time.Since(j.enqueued)
		rep, outcome, usage, err := s.compute(j)
		e2e := time.Since(j.enqueued)
		if err != nil {
			s.errored.Inc()
		} else {
			s.completed.Inc()
			// The e2e histogram carries OpenMetrics exemplars: a scrape of
			// a slow bucket links straight to the trace that filled it.
			var tid string
			if j.rec != nil {
				tid = j.rec.TraceID().String()
			}
			s.e2eNS.ObserveExemplar(e2e, tid)
		}
		if usage != nil {
			usage.QueueWaitNanos = qwait.Nanoseconds()
			s.observeUsage(usage)
		}
		j.done <- jobResult{report: rep, outcome: outcome, usage: usage, err: err}
	}
}

// observeUsage folds one request's attribution record into the
// per-dimension histograms and the attributed-CPU total that reprostat
// reconciles against process CPU.
func (s *Server) observeUsage(u *attrib.Usage) {
	s.usageQueueNS.Observe(time.Duration(u.QueueWaitNanos))
	s.usageCPUNS.Observe(time.Duration(u.CPUNanos))
	s.usageCells.Observe(time.Duration(u.Cells))
	s.usageAllocB.Observe(time.Duration(u.AllocBytes))
	s.attribCPU.Add(u.CPUNanos)
	s.cacheBytesIn.Add(u.CacheBytesRead)
	s.cacheBytesOut.Add(u.CacheBytesWritten)
}

// compute satisfies a job from the cache or the engine. Results are
// cached pre-encoded: a hit serves stored bytes, so the hot path never
// re-marshals a large report.
//
// The cache.lookup span wraps the whole GetOrCompute; on a miss the
// engine span nests inside it, and the critical-path analyzer's
// exclusive-time attribution charges only the non-engine remainder to
// the cache. A singleflight ride-along is renamed cache.wait — the
// time was spent waiting on another request's engine run.
func (s *Server) compute(j *job) ([]byte, cache.Outcome, *attrib.Usage, error) {
	// engineUsage escapes the run closure: when this goroutine is the
	// one that computes (Miss), it carries the engine's attribution out
	// of the cache layer. Ride-alongs and hits leave it nil — their
	// cost is the cached bytes they read, not the leader's CPU.
	var engineUsage *attrib.Usage
	// With a cache, the engine span nests under cache.lookup.
	parent := j.root
	var csp *trace.Active
	if s.cache != nil {
		csp = j.rec.Start(j.root, "cache.lookup")
		defer csp.End()
		parent = csp.ID()
	}
	run := func() (any, error) {
		rep, err := s.runEngine(j.req, j.rec, parent)
		if err != nil {
			return nil, err
		}
		engineUsage = rep.Usage
		return json.Marshal(rep)
	}
	if s.cache == nil {
		v, err := run()
		if err != nil {
			return nil, cache.Miss, nil, err
		}
		usage := &attrib.Usage{}
		usage.Add(engineUsage)
		return v.([]byte), cache.Miss, usage, nil
	}
	v, outcome, err := s.cache.GetOrCompute(CacheKey(j.req), run)
	if outcome == cache.Shared {
		csp.SetName("cache.wait")
	}
	if err != nil {
		return nil, outcome, nil, err
	}
	rep := v.([]byte)
	usage := &attrib.Usage{}
	usage.Add(engineUsage)
	if outcome == cache.Miss {
		// We computed and wrote the entry into the cache.
		usage.CacheBytesWritten = int64(len(rep))
	} else {
		usage.CacheBytesRead = int64(len(rep))
	}
	return rep, outcome, usage, nil
}

// runEngine dispatches a canonicalised request to its backend. rec and
// parent thread the request's trace into the engine (both may be
// nil/zero).
func (s *Server) runEngine(req *Request, rec *trace.Recorder, parent trace.SpanID) (*repro.Report, error) {
	opt := repro.Options{
		Matrix:  req.Matrix,
		GapOpen: req.GapOpen, GapExt: req.GapExt,
		NumTops: req.Tops, MinScore: req.MinScore, MinPairs: req.MinPairs,
		Lanes:       req.Lanes,
		Speculative: req.Speculative,
		Preset:      req.Preset,
		SeedK:       req.SeedK, SeedMask: req.SeedMask, SeedMaxOcc: req.SeedMaxOcc,
		SeedBand: req.SeedBand, SeedPad: req.SeedPad,
		Spans:      rec,
		SpanParent: parent,
		Counters:   s.engineCtrs,
	}
	switch req.Backend {
	case BackendParallel:
		opt.Workers = req.Workers
		if opt.Workers <= 1 {
			opt.Workers = max(2, runtime.GOMAXPROCS(0))
		}
	case BackendCluster:
		opt.Slaves = req.Slaves
		opt.ThreadsPerSlave = req.ThreadsPerSlave
	}
	t0 := time.Now()
	// Label the engine run so a CPU profile taken through the debug
	// listener (reproserve -debug-addr) slices by request dimension (a
	// flame graph filtered on kernel_tier=int16x16 shows exactly the
	// int16 ladder's CPU). Labels follow every goroutine the engine
	// spawns.
	preset := req.Preset
	if preset == "" {
		preset = "exact"
	}
	labels := pprof.Labels(
		"trace_id", rec.TraceID().String(),
		"backend", req.Backend,
		"kernel_tier", repro.KernelTierFor(req.Matrix, req.GapOpen, req.GapExt, len(req.Sequence), req.Lanes, req.Preset),
		"preset", preset,
	)
	var rep *repro.Report
	var err error
	pprof.Do(context.Background(), labels, func(context.Context) {
		rep, err = repro.Analyze(req.ID, req.Sequence, opt)
	})
	if err != nil {
		return nil, err
	}
	s.engineNS.Observe(time.Since(t0))
	return rep, nil
}

// Cache exposes the result cache (nil when disabled); used by tests
// and the stats endpoint.
func (s *Server) Cache() *cache.Cache { return s.cache }
