package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
)

// maxBodyBytes bounds a request body; a 100k-residue sequence plus
// JSON framing fits comfortably.
const maxBodyBytes = 8 << 20

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/analyze   run (or cache-serve) one analysis
//	GET  /healthz      liveness + drain state
//	GET  /metrics      metrics snapshot, JSON or OpenMetrics (when
//	                   Config.Metrics set)
//	GET  /trace/{id}   one request trace (when Config.Traces set)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/healthz", s.handleHealth)
	// /metrics and /trace/{id} are the routes shared with every other
	// listener. The scrape-time gauge proc/cpu_ns gives reprostat the
	// denominator for CPU reconciliation without a second endpoint.
	obs.Mount(mux, s.cfg.Metrics, s.cfg.Traces, func() {
		s.cfg.Metrics.Gauge("proc/cpu_ns").Set(attrib.ProcessCPU())
	})
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	status := http.StatusOK
	state := "ok"
	if draining {
		// Draining is how load balancers learn to stop routing here. The
		// Retry-After hint matches the one the analyze shed path computes,
		// so pollers and shed clients back off consistently.
		status = http.StatusServiceUnavailable
		state = "draining"
		w.Header().Set("Retry-After", s.retryAfter(true))
	}
	writeJSON(w, status, struct {
		Status string `json:"status"`
		Queue  int    `json:"queue"`
	}{state, len(s.queue)})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.requests.Inc()

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.canonicalise(s.cfg.MaxSequenceLen); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.deadline(req.TimeoutMS))
	defer cancel()

	// Tracing: adopt the caller's W3C traceparent when one is present
	// (the request joins the caller's trace, parented under its span),
	// else start a fresh trace. The recorder is nil when tracing is off;
	// every span call below then degrades to a nil check.
	var rec *trace.Recorder
	var parent trace.SpanID
	if s.cfg.Traces != nil {
		var tid trace.TraceID
		if sc, ok := trace.ParseTraceParent(r.Header.Get("traceparent")); ok {
			tid, parent = sc.Trace, sc.Span
		} else {
			tid = trace.NewTraceID()
		}
		rec = s.cfg.Traces.Rec(tid)
		w.Header().Set("X-Trace-Id", tid.String())
	}
	root := rec.Start(parent, "request")
	root.SetArg(int64(len(req.Sequence)))

	start := time.Now()
	j := &job{
		req:      &req,
		ctx:      ctx,
		enqueued: start,
		done:     make(chan jobResult, 1),
		rec:      rec,
		root:     root.ID(),
		qspan:    rec.Start(root.ID(), "queue.wait"),
	}
	if ok, cause := s.admit(j); !ok {
		j.qspan.End()
		root.End()
		s.recordShed(cause)
		if cause == causeDraining {
			w.Header().Set("Retry-After", s.retryAfter(true))
			writeError(w, http.StatusServiceUnavailable, "server is draining")
		} else {
			w.Header().Set("Retry-After", s.retryAfter(false))
			writeError(w, http.StatusTooManyRequests, "admission queue full")
		}
		return
	}

	select {
	case res := <-j.done:
		// Close the request span before measuring elapsed time, so the
		// trace's root duration and the response's elapsed_ms agree (the
		// CI smoke test reconciles the critical path against elapsed_ms).
		root.End()
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) {
				writeError(w, http.StatusGatewayTimeout, "deadline expired in queue")
				return
			}
			writeError(w, http.StatusUnprocessableEntity, res.err.Error())
			return
		}
		setResourceHeaders(w.Header(), res.usage)
		writeAnalyzeResponse(w, req.ID, res.outcome.String(),
			float64(time.Since(start).Microseconds())/1e3, res.report)
	case <-ctx.Done():
		// The job may still be picked up by a worker; its result (if
		// any) lands in the cache for the retry.
		root.End()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-body is not actionable
}

// writeAnalyzeResponse assembles a Response by hand: the envelope is
// tiny and the report is already-encoded JSON straight from the cache,
// so the hot path is two small writes and one bulk copy — no
// reflection over tens of thousands of pairs per hit.
func writeAnalyzeResponse(w http.ResponseWriter, id, outcome string, elapsedMS float64, report []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var env bytes.Buffer
	env.WriteByte('{')
	if id != "" {
		fmt.Fprintf(&env, `"id":%s,`, mustJSONString(id))
	}
	fmt.Fprintf(&env, `"cache":%q,"elapsed_ms":%g,"report":`, outcome, elapsedMS)
	w.Write(env.Bytes())   //nolint:errcheck
	w.Write(report)        //nolint:errcheck
	w.Write([]byte("}\n")) //nolint:errcheck
}

// setResourceHeaders surfaces the request's attribution record as
// X-Resource-* response headers, so clients and the router see cost
// without parsing the report body. Zero-valued dimensions are omitted
// (a cache hit carries no CPU header, only cache bytes).
func setResourceHeaders(h http.Header, u *attrib.Usage) {
	if u == nil {
		return
	}
	set := func(name string, v int64) {
		if v != 0 {
			h.Set(name, strconv.FormatInt(v, 10))
		}
	}
	set("X-Resource-Cpu-Ns", u.CPUNanos)
	set("X-Resource-Cells", u.Cells)
	set("X-Resource-Alloc-Bytes", u.AllocBytes)
	set("X-Resource-Queue-Ns", u.QueueWaitNanos)
	set("X-Resource-Cache-Read-Bytes", u.CacheBytesRead)
	set("X-Resource-Cache-Written-Bytes", u.CacheBytesWritten)
}

// mustJSONString encodes an arbitrary string as a JSON string literal.
func mustJSONString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}

// retryAfter computes the Retry-After value (whole seconds) for a
// shed request from the observed mean engine latency and the queue's
// drain state, instead of a hardcoded constant. A full queue should
// clear one slot in roughly mean/workers; a draining server needs the
// whole backlog plus the in-flight work to finish before a restart
// can accept traffic. Clamped to [1, 60]: the caller always gets a
// positive hint, and an early cold-start outlier can't tell clients
// to go away for minutes.
func (s *Server) retryAfter(draining bool) string {
	mean := s.engineNS.Snapshot().Mean()
	if mean <= 0 {
		// No engine samples yet (cold daemon): assume a second per job.
		mean = time.Second
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	var wait time.Duration
	if draining {
		wait = time.Duration(len(s.queue)+workers) * mean / time.Duration(workers)
	} else {
		wait = mean / time.Duration(workers)
	}
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
