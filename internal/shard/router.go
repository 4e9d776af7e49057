package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// maxBodyBytes mirrors the serve layer's request-body bound.
const maxBodyBytes = 8 << 20

// hotKeyReplicas is the replica-set size a hot key fans out over.
const hotKeyReplicas = 2

// Config sizes a Router. Shards is the only required field.
type Config struct {
	// Shards are the reproserve base URLs ("http://127.0.0.1:8081").
	Shards []string
	// ProbeInterval is the /healthz polling period (0 = 1s).
	ProbeInterval time.Duration
	// HotKeyThreshold is the per-key request rate (per second) beyond
	// which a key fans out to hotKeyReplicas shards (0 = 64; negative
	// disables).
	HotKeyThreshold int
	// MaxSequenceLen rejects oversized sequences at the gateway
	// (0 = the serve default).
	MaxSequenceLen int
	// Metrics receives router telemetry under the router/ namespace.
	Metrics *obs.Registry
	// Traces, when non-nil, records router.route/router.upstream spans
	// and enables the merged GET /trace/{id} endpoint.
	Traces *trace.Collector
}

// Router is the stateless gateway. Create with New, run the health
// loop with Start, expose Handler, stop with Close.
type Router struct {
	cfg     Config
	ring    *Ring
	flights *flightGroup
	mon     *monitor
	hot     *hotTracker
	client  *http.Client

	requests   *obs.Counter
	retries    *obs.Counter
	shared     *obs.Counter
	hotFanout  *obs.Counter
	failovers  *obs.Counter
	ringSize   *obs.Gauge
	upstreamNS *obs.Histogram

	shardMu   sync.Mutex
	shardReqs map[string]*obs.Counter
	shardErrs map[string]*obs.Counter
}

// New builds a router over the given shards.
func New(cfg Config) *Router {
	if cfg.HotKeyThreshold == 0 {
		cfg.HotKeyThreshold = 64
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     30 * time.Second,
	}}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(DefaultVirtualNodes),
		flights: newFlightGroup(),
		hot:     newHotTracker(cfg.HotKeyThreshold, time.Second),
		client:  client,

		requests:   cfg.Metrics.Counter("router/requests"),
		retries:    cfg.Metrics.Counter("router/retries"),
		shared:     cfg.Metrics.Counter("router/flight_shared"),
		hotFanout:  cfg.Metrics.Counter("router/hot_fanout"),
		failovers:  cfg.Metrics.Counter("router/failovers"),
		ringSize:   cfg.Metrics.Gauge("router/ring_size"),
		upstreamNS: cfg.Metrics.Histogram("router/upstream_ns"),

		shardReqs: make(map[string]*obs.Counter),
		shardErrs: make(map[string]*obs.Counter),
	}
	rt.mon = newMonitor(rt.ring, cfg.Shards, client, cfg.ProbeInterval, func(string, bool) {
		rt.ringSize.Set(int64(rt.ring.Len()))
	})
	rt.ringSize.Set(int64(rt.ring.Len()))
	return rt
}

// Start launches the health-probe loop.
func (rt *Router) Start() { rt.mon.start() }

// Close stops the health-probe loop.
func (rt *Router) Close() { rt.mon.close() }

// Ring exposes the hash ring (tests and the stats endpoint).
func (rt *Router) Ring() *Ring { return rt.ring }

func (rt *Router) shardCounters(shard string) (reqs, errs *obs.Counter) {
	rt.shardMu.Lock()
	defer rt.shardMu.Unlock()
	if rt.shardReqs[shard] == nil {
		// Per-shard counters carry the shard URL as a label rather than a
		// flattened name segment: the OpenMetrics writer escapes the
		// value, so a hostile or merely odd URL cannot corrupt the
		// exposition.
		rt.shardReqs[shard] = rt.cfg.Metrics.Counter(obs.LabeledName("router/shard_requests", "shard", shard))
		rt.shardErrs[shard] = rt.cfg.Metrics.Counter(obs.LabeledName("router/shard_errors", "shard", shard))
	}
	return rt.shardReqs[shard], rt.shardErrs[shard]
}

// Handler returns the gateway's HTTP mux:
//
//	POST /v1/analyze   route on cache key, singleflight, retry
//	GET  /healthz      router liveness + ring size
//	GET  /metrics      router metrics, JSON or OpenMetrics (when
//	                   Config.Metrics set)
//	GET  /trace/{id}   merged router+shard trace (when Traces set)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	// The router's /trace/{id} merges shard halves, so only /metrics is
	// the shared route here.
	obs.Mount(mux, rt.cfg.Metrics, nil, nil)
	if rt.cfg.Traces != nil {
		mux.HandleFunc("GET /trace/{id}", rt.handleTrace)
	}
	return mux
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	n := rt.ring.Len()
	status := http.StatusOK
	state := "ok"
	if n == 0 {
		// No live shards: the router is up but cannot serve; 503 tells
		// an outer balancer to look elsewhere.
		status = http.StatusServiceUnavailable
		state = "no-shards"
	}
	writeJSON(w, status, struct {
		Status string   `json:"status"`
		Shards []string `json:"shards"`
	}{state, rt.ring.Nodes()})
}

// decodeRequest parses and canonicalises an analyze body so the
// router derives exactly the cache key the shard will.
func (rt *Router) decodeRequest(w http.ResponseWriter, r *http.Request) (*serve.Request, string, bool) {
	var req serve.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, "", false
	}
	if err := req.Canonicalise(rt.cfg.MaxSequenceLen); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, "", false
	}
	return &req, serve.CacheKey(&req), true
}

// targets assembles the ordered upstream list for key: the replica set
// (rotated by the hot-key round-robin cursor) followed by the
// remaining ring successors as failover spares.
func (rt *Router) targets(key string, now time.Time) (list []string, hot bool) {
	replicas := 1
	var rr uint64
	if hot, rr = rt.hot.touch(key, now); hot {
		replicas = hotKeyReplicas
		rt.hotFanout.Inc()
	}
	n := rt.ring.Len()
	if n == 0 {
		return nil, hot
	}
	all := rt.ring.LookupN(key, n) // every live shard, in ring order
	if replicas > len(all) {
		replicas = len(all)
	}
	if replicas < 2 {
		return all, hot
	}
	// Round-robin within the replica set; the rotation preserves the
	// failover spares after it.
	set := make([]string, 0, len(all))
	off := int(rr % uint64(replicas))
	for i := 0; i < replicas; i++ {
		set = append(set, all[(off+i)%replicas])
	}
	return append(set, all[replicas:]...), hot
}

func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	req, key, ok := rt.decodeRequest(w, r)
	if !ok {
		return
	}

	// Trace: adopt the caller's traceparent or start a fresh trace, so
	// critical-path attribution spans router -> shard.
	var rec *trace.Recorder
	var parent trace.SpanID
	if rt.cfg.Traces != nil {
		var tid trace.TraceID
		if sc, ok := trace.ParseTraceParent(r.Header.Get("traceparent")); ok {
			tid, parent = sc.Trace, sc.Span
		} else {
			tid = trace.NewTraceID()
		}
		rec = rt.cfg.Traces.Rec(tid)
		w.Header().Set("X-Trace-Id", tid.String())
	}
	root := rec.Start(parent, "router.route")
	root.SetArg(int64(len(req.Sequence)))
	defer root.End()

	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	res, sharedFlight := rt.flights.do(key, func() *upstreamResult {
		targets, _ := rt.targets(key, time.Now())
		return rt.forward(r.Context(), rec, root.ID(), body, targets)
	})
	if sharedFlight {
		rt.shared.Inc()
		root.SetName("router.route.shared")
	}
	rt.writeUpstream(w, res, sharedFlight)
}

// forward POSTs body to /v1/analyze on targets in order until one
// answers. Transport errors mark the shard down (passive failure
// detection) and fail over to the next ring node; a draining shard's
// 503 fails over without marking — the probe loop handles its ring
// exit. Any other status is the answer.
func (rt *Router) forward(ctx context.Context, rec *trace.Recorder, parent trace.SpanID, body []byte, targets []string) *upstreamResult {
	if len(targets) == 0 {
		return &upstreamResult{err: fmt.Errorf("no live shards")}
	}
	var lastErr error
	for i, shard := range targets {
		if i > 0 {
			rt.retries.Inc()
			rt.failovers.Inc()
		}
		reqs, errs := rt.shardCounters(shard)
		reqs.Inc()
		up := rec.Start(parent, "router.upstream")
		res, err := rt.roundTrip(ctx, shard, http.MethodPost, "/v1/analyze", body, rec, up)
		up.End()
		if err != nil {
			errs.Inc()
			rt.mon.markDown(shard)
			lastErr = err
			continue
		}
		if res.status == http.StatusServiceUnavailable {
			// Draining (or otherwise refusing): fail over. The shard
			// stays in the ring until the probe loop confirms — a single
			// 503 may be a momentary queue spike, not an exit.
			errs.Inc()
			lastErr = fmt.Errorf("%s: 503", shard)
			continue
		}
		return res
	}
	return &upstreamResult{err: fmt.Errorf("all shards failed: %w", lastErr)}
}

// roundTrip performs one upstream HTTP call, propagating traceparent
// so the shard's spans join the router's trace under the upstream span.
func (rt *Router) roundTrip(ctx context.Context, shard, method, path string, body []byte, rec *trace.Recorder, up *trace.Active) (*upstreamResult, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, shard+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if rec != nil && !up.ID().IsZero() {
		sc := trace.SpanContext{Trace: rec.TraceID(), Span: up.ID()}
		hreq.Header.Set("traceparent", sc.TraceParent())
	}
	t0 := time.Now()
	resp, err := rt.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	rt.upstreamNS.Observe(time.Since(t0))

	hdr := make(http.Header, 8)
	for _, k := range []string{"Content-Type", "Retry-After", "X-Trace-Id",
		"X-Resource-Cpu-Ns", "X-Resource-Cells", "X-Resource-Alloc-Bytes",
		"X-Resource-Queue-Ns", "X-Resource-Cache-Read-Bytes",
		"X-Resource-Cache-Written-Bytes"} {
		if v := resp.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	return &upstreamResult{status: resp.StatusCode, header: hdr, body: b, shard: shard}, nil
}

// writeUpstream relays an upstream result to the client, tagging which
// shard answered and whether this request led or shared the flight.
func (rt *Router) writeUpstream(w http.ResponseWriter, res *upstreamResult, shared bool) {
	if res.err != nil {
		writeError(w, http.StatusBadGateway, res.err.Error())
		return
	}
	for k, vs := range res.header {
		for _, v := range vs {
			if k == "X-Trace-Id" && w.Header().Get(k) != "" {
				continue // the router's own trace id wins
			}
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Router-Shard", res.shard)
	if shared {
		w.Header().Set("X-Router-Flight", "shared")
	} else {
		w.Header().Set("X-Router-Flight", "lead")
	}
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // client gone mid-body
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, serve.ErrorResponse{Error: msg})
}
