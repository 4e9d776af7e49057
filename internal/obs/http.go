package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/obs/trace"
)

// DebugServer is the opt-in HTTP debug listener:
//
//	GET /metrics         JSON registry snapshot, or OpenMetrics (see
//	                     WantsOpenMetrics)
//	GET /trace/{id}      one request trace as a span tree
//	GET /debug/pprof/*   the standard pprof handlers
//
// It is meant for operators, not end users: StartDebug binds loopback
// when the address has no host, and nothing authenticates requests, so
// exposing it beyond localhost is an explicit operator decision
// (DESIGN.md section 8).
type DebugServer struct {
	// Addr is the bound address (useful when the requested port was 0).
	Addr string

	ln  net.Listener
	srv *http.Server
}

// WantsOpenMetrics reports whether the request asks for the
// OpenMetrics 1.0 text format (exemplar-capable):
// ?format=openmetrics, or an Accept header naming
// application/openmetrics-text.
func WantsOpenMetrics(r *http.Request) bool {
	if r.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	if f := r.URL.Query().Get("format"); f != "" {
		return false // an explicit other format wins over Accept
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// Mount registers on mux the routes every listener in this repository
// shares, so the debug listener, the serving daemon and the router
// answer them identically:
//
//	GET /metrics     reg as JSON, or OpenMetrics with exemplars; left
//	                 out when reg is nil
//	GET /trace/{id}  one trace from col as a span tree; left out when
//	                 col is nil
//
// refresh, when non-nil, runs before each /metrics snapshot: the place
// for gauges computed on read. With both reg and col set, every scrape
// also syncs the collector's lifetime drop total into the
// trace/spans_dropped counter.
func Mount(mux *http.ServeMux, reg *Registry, col *trace.Collector, refresh func()) {
	if reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			if refresh != nil {
				refresh()
			}
			if col != nil {
				raiseTo(reg.Counter("trace/spans_dropped"), int64(col.DroppedTotal()))
			}
			if WantsOpenMetrics(r) {
				w.Header().Set("Content-Type", OpenMetricsContentType)
				WriteOpenMetrics(w, reg.Snapshot()) //nolint:errcheck // client gone mid-body
				return
			}
			writeJSON(w, reg.Snapshot())
		})
	}
	if col != nil {
		mux.HandleFunc("GET /trace/{id}", func(w http.ResponseWriter, r *http.Request) {
			handleTraceByID(w, col, r.PathValue("id"))
		})
	}
}

// raiseTo lifts c to v unless it already reads at least v. Concurrent
// scrapes race here; the CAS lets only one of them add any given gap,
// so the counter never overshoots the total it mirrors.
func raiseTo(c *Counter, v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// handleTraceByID serves one trace from col as a span tree.
func handleTraceByID(w http.ResponseWriter, col *trace.Collector, id string) {
	tid, ok := trace.ParseTraceID(id)
	if !ok {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	spans, dropped, ok := col.Get(tid)
	if !ok {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	// The complete flag is the dropped-marker consumers key off: a
	// truncated span set cannot reconcile a critical path, and tools
	// like reprotrace -check must refuse rather than report a bogus
	// attribution over a partial tree.
	writeJSON(w, struct {
		TraceID  string           `json:"trace_id"`
		Dropped  uint64           `json:"dropped"`
		Complete bool             `json:"complete"`
		Spans    []trace.SpanJSON `json:"spans"`
		Tree     []*trace.Node    `json:"tree"`
	}{tid.String(), dropped, dropped == 0, trace.ToJSON(spans), trace.BuildTree(spans)})
}

// StartDebug serves reg and col (either may be nil) on addr. An
// address without a host part — ":9621" — binds 127.0.0.1.
func StartDebug(addr string, reg *Registry, col *trace.Collector) (*DebugServer, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug address %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}

	mux := http.NewServeMux()
	Mount(mux, reg, col, nil)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &DebugServer{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// CloseTimeout bounds how long Close waits for in-flight scrapes
// before force-closing their connections.
const CloseTimeout = 2 * time.Second

// Close stops the listener gracefully: new connections are refused
// immediately, but in-flight /metrics and /trace scrapes are given
// CloseTimeout to finish (an abrupt srv.Close would truncate a scrape
// mid-body, handing the collector a corrupt JSON document). If the
// timeout expires, remaining connections are force-closed.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), CloseTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Stragglers (or a hung peer) outlived the grace period; cut
		// them off rather than hang the caller.
		return s.srv.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
