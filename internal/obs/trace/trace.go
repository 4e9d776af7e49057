// Package trace is the distributed request-tracing layer: spans with
// trace/parent links, a bounded per-trace buffer, W3C-style traceparent
// propagation, a stable binary codec (OBT1), the JSON span document
// GET /trace/{id} serves, and a critical-path analyzer over the span
// DAG of a finished request.
//
// The design follows the same rules as package obs: every type is safe
// on a nil receiver, so tracing can be threaded through hot paths as
// optional pointers — a request that carries no Recorder costs one nil
// check per instrumentation point.
//
// Clock model: every span's Start is nanoseconds on the owning
// Collector's monotonic timeline (ns since the collector was created).
// Spans recorded on another process (cluster slaves) arrive with times
// on that process's local timeline and are re-based by the receiver
// using the link round-trip time before being added — see package
// cluster. The analyzer additionally clamps children into their
// parents, so residual skew cannot produce negative attributions.
package trace

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request (W3C trace-id: 16 bytes).
type TraceID [16]byte

// SpanID identifies one span within a trace (W3C parent-id: 8 bytes).
type SpanID [8]byte

// IsZero reports whether the ID is the all-zero (invalid) value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the all-zero (absent) value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		u, v := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(u >> (8 * i))
			t[8+i] = byte(v >> (8 * i))
		}
	}
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		u := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(u >> (8 * i))
		}
	}
	return s
}

// ParseTraceID parses 32 hex digits.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID parses 16 hex digits.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// SpanContext is the propagated identity of a request: which trace it
// belongs to and which span is the current parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// TraceParent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) TraceParent() string {
	return fmt.Sprintf("00-%s-%s-01", sc.Trace, sc.Span)
}

// ParseTraceParent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). Unknown versions are accepted as
// long as the field layout matches, per the spec's forward-compat rule.
func ParseTraceParent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if s[0] == 'f' && s[1] == 'f' { // version 0xff is forbidden
		return sc, false
	}
	t, ok := ParseTraceID(s[3:35])
	if !ok {
		return sc, false
	}
	id, ok := ParseSpanID(s[36:52])
	if !ok {
		return sc, false
	}
	sc.Trace, sc.Span = t, id
	return sc, true
}

// Span is one completed operation of a trace. Times are nanoseconds on
// the owning collector's monotonic timeline.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a root span
	Name   string
	Rank   int32 // process identity: -1 server/local, 0 master, >0 slave
	Start  int64 // ns since the collector epoch
	Dur    int64 // ns
	Arg    int64 // name-specific (task R, queue depth, ...)
}

// End returns the span's end time (Start + Dur).
func (s Span) End() int64 { return s.Start + s.Dur }

// DefaultMaxTraces and DefaultSpansPerTrace are the Collector bounds
// selected by zero configuration values.
const (
	DefaultMaxTraces     = 256
	DefaultSpansPerTrace = 4096
)

// Collector stores the spans of recently finished (or in-flight)
// traces, bounded two ways: at most maxTraces retained traces (oldest
// evicted first) and at most spansPerTrace spans per trace (further
// spans are dropped and counted). All methods are nil-safe.
type Collector struct {
	epoch time.Time
	drops atomic.Uint64 // spans dropped across every trace, ever

	mu            sync.Mutex
	maxTraces     int
	spansPerTrace int
	traces        map[TraceID]*traceBuf
	order         []TraceID // creation order, for eviction
}

// traceBuf is one trace's bounded span buffer.
type traceBuf struct {
	mu      sync.Mutex
	spans   []Span
	dropped uint64
	limit   int
}

// NewCollector returns a collector retaining up to maxTraces traces of
// up to spansPerTrace spans each (defaults for values <= 0).
func NewCollector(maxTraces, spansPerTrace int) *Collector {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if spansPerTrace <= 0 {
		spansPerTrace = DefaultSpansPerTrace
	}
	return &Collector{
		epoch:         time.Now(),
		maxTraces:     maxTraces,
		spansPerTrace: spansPerTrace,
		traces:        make(map[TraceID]*traceBuf),
	}
}

// Now returns the current time on the collector's monotonic timeline
// (0 for nil).
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch).Nanoseconds()
}

// Rec returns a Recorder bound to trace id, creating the trace's buffer
// if needed (and evicting the oldest trace when the collector is full).
// A nil collector or a zero id returns a nil Recorder, which records
// nothing.
func (c *Collector) Rec(id TraceID) *Recorder {
	if c == nil || id.IsZero() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tb := c.traces[id]
	if tb == nil {
		for len(c.order) >= c.maxTraces {
			delete(c.traces, c.order[0])
			c.order = c.order[1:]
		}
		tb = &traceBuf{limit: c.spansPerTrace}
		c.traces[id] = tb
		c.order = append(c.order, id)
	}
	return &Recorder{c: c, id: id, buf: tb}
}

// Get returns a copy of the trace's spans and its drop count; ok is
// false when the trace is unknown (or the collector nil).
func (c *Collector) Get(id TraceID) (spans []Span, dropped uint64, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	tb := c.traces[id]
	c.mu.Unlock()
	if tb == nil {
		return nil, 0, false
	}
	tb.mu.Lock()
	spans = append([]Span(nil), tb.spans...)
	dropped = tb.dropped
	tb.mu.Unlock()
	return spans, dropped, true
}

// DroppedTotal returns the number of spans dropped by per-trace buffer
// bounds across the collector's lifetime (0 for nil). Unlike the
// per-trace count returned by Get, this total survives trace eviction,
// so the trace/spans_dropped metric never undercounts.
func (c *Collector) DroppedTotal() uint64 {
	if c == nil {
		return 0
	}
	return c.drops.Load()
}

// Len returns the number of retained traces.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// Recorder records spans into one trace's buffer. All methods are safe
// on a nil receiver (they record nothing), so instrumented code never
// branches on "is tracing on".
type Recorder struct {
	c   *Collector
	id  TraceID
	buf *traceBuf
}

// TraceID returns the bound trace's ID (zero for nil).
func (r *Recorder) TraceID() TraceID {
	if r == nil {
		return TraceID{}
	}
	return r.id
}

// Now returns the current time on the collector timeline (0 for nil).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.c.Now()
}

// Add records a fully built span, stamping its trace ID. Used for spans
// shipped from another process after re-basing their times.
func (r *Recorder) Add(sp Span) {
	if r == nil {
		return
	}
	sp.Trace = r.id
	r.buf.mu.Lock()
	kept := len(r.buf.spans) < r.buf.limit
	if kept {
		r.buf.spans = append(r.buf.spans, sp)
	} else {
		r.buf.dropped++
	}
	r.buf.mu.Unlock()
	if !kept {
		r.c.drops.Add(1)
	}
}

// Start opens a span under parent (zero parent = root) and returns the
// live handle. The span is recorded when End is called.
func (r *Recorder) Start(parent SpanID, name string) *Active {
	if r == nil {
		return nil
	}
	return &Active{
		r:  r,
		sp: Span{ID: NewSpanID(), Parent: parent, Name: name, Rank: -1, Start: r.Now()},
	}
}

// Active is an open span. Not safe for concurrent mutation. All methods
// tolerate a nil receiver, and End is idempotent (only the first call
// records).
type Active struct {
	r    *Recorder
	sp   Span
	done bool
}

// ID returns the span's ID (zero for nil), for parenting children.
func (a *Active) ID() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.sp.ID
}

// SetRank tags the span with a process rank.
func (a *Active) SetRank(rank int32) {
	if a != nil {
		a.sp.Rank = rank
	}
}

// SetName renames the span (e.g. when the outcome determines the kind).
func (a *Active) SetName(name string) {
	if a != nil {
		a.sp.Name = name
	}
}

// SetArg attaches the name-specific argument.
func (a *Active) SetArg(arg int64) {
	if a != nil {
		a.sp.Arg = arg
	}
}

// End closes the span and records it. Calls after the first are no-ops.
func (a *Active) End() {
	if a == nil || a.done {
		return
	}
	a.done = true
	a.sp.Dur = a.r.Now() - a.sp.Start
	a.r.Add(a.sp)
}
