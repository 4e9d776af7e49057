// Command reproserve is the analysis serving daemon: an HTTP/JSON
// front door over the repeat-detection engines, with a bounded
// admission queue, per-request deadlines, 429 backpressure, a
// content-addressed LRU result cache with singleflight dedup, and
// graceful drain on SIGTERM (see DESIGN.md section 9). Results live in
// memory only: a restart starts with a cold cache.
//
//	reproserve -addr :8080 -workers 8 -queue 64 -cache 512
//	curl -s localhost:8080/v1/analyze -d '{"sequence":"ATGCATGCATGC","matrix":"paper-dna","tops":3}'
//	curl -s localhost:8080/metrics
//
// With -debug-addr the daemon also serves the standard /debug/pprof/
// handlers on a second, operator-only listener; engine runs carry pprof
// labels (trace_id, backend, kernel_tier, preset), so a CPU profile
// taken there slices by request dimension:
//
//	reproserve -addr :8080 -debug-addr :8081 &
//	go tool pprof -tagfocus kernel_tier=int16x16 'http://localhost:8081/debug/pprof/profile?seconds=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (bare ports bind localhost)")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		cacheN  = flag.Int("cache", 0, "result cache entries (0 = default, -1 = disable)")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxSeq  = flag.Int("max-seq", 100000, "maximum sequence length admitted")
		drainT  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for queued work")
		traces  = flag.Int("traces", trace.DefaultMaxTraces, "request traces retained for /trace/{id} (0 = default, -1 = disable)")
		cacheB  = flag.Int64("cache-bytes", 0, "result cache byte budget (0 = default)")

		debugAddr = flag.String("debug-addr", "", "serve pprof on this address (binds localhost unless a host is given; empty disables)")
	)
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := obs.StartDebug(*debugAddr, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "reproserve: debug endpoints on http://%s/debug/pprof/\n", dbg.Addr)
	}

	reg := obs.NewRegistry()
	var col *trace.Collector
	if *traces >= 0 {
		col = trace.NewCollector(*traces, 0)
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxSequenceLen: *maxSeq,
		CacheEntries:   *cacheN,
		CacheBytes:     *cacheB,
		Metrics:        reg,
		Traces:         col,
	})
	srv.Start()

	host, port, err := net.SplitHostPort(*addr)
	if err != nil {
		fatal(fmt.Errorf("bad -addr %q: %w", *addr, err))
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "reproserve: listening on %s\n", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "reproserve: %v, draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Drain order: stop accepting HTTP first (in-flight handlers keep
	// running), then let the worker pool finish everything queued.
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "reproserve: http shutdown: %v\n", err)
		httpSrv.Close()
	}
	if err := srv.Drain(ctx); err != nil {
		fatal(err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "reproserve: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproserve:", err)
	os.Exit(1)
}
