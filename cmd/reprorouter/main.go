// Command reprorouter is the stateless scale-out gateway: it
// consistent-hash routes POST /v1/analyze on the content-addressed
// cache key to a fleet of reproserve shards, so each shard's cache
// holds a disjoint slice of the keyspace and fleet cache capacity
// grows with the number of shards (see DESIGN.md section 14).
//
// Concurrent identical requests collapse into one upstream call per
// key (distributed singleflight); failed shards are retried on the
// next ring node; draining shards (503 /healthz) leave the ring
// gracefully; hot keys fan out over replicas. GET /trace/{id} serves
// the merged router+shard trace for reprotrace.
//
//	reprorouter -addr :8090 -shards http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl -s localhost:8090/v1/analyze -d '{"sequence":"ATGCATGCATGC","matrix":"paper-dna","tops":3}'
//	curl -s localhost:8090/metrics
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
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8090", "listen address (bare ports bind localhost)")
		shards  = flag.String("shards", "", "comma-separated reproserve base URLs (required)")
		probe   = flag.Duration("probe-interval", time.Second, "shard /healthz polling period")
		hotThr  = flag.Int("hot-threshold", 0, "requests/sec that makes a key hot (0 = default, -1 = disable)")
		maxSeq  = flag.Int("max-seq", 0, "maximum sequence length admitted (0 = serve default)")
		tracesN = flag.Int("traces", trace.DefaultMaxTraces, "request traces retained for /trace/{id} (-1 = disable)")
	)
	flag.Parse()

	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, strings.TrimSuffix(s, "/"))
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("need -shards with at least one reproserve URL"))
	}

	var col *trace.Collector
	if *tracesN >= 0 {
		col = trace.NewCollector(*tracesN, 0)
	}
	rt := shard.New(shard.Config{
		Shards:          urls,
		ProbeInterval:   *probe,
		HotKeyThreshold: *hotThr,
		MaxSequenceLen:  *maxSeq,
		Metrics:         obs.NewRegistry(),
		Traces:          col,
	})
	rt.Start()
	defer rt.Close()

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
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "reprorouter: listening on %s, %d shards\n", ln.Addr(), len(urls))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "reprorouter: %v, shutting down\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// The router holds no state worth draining — in-flight proxied
	// requests get a short grace period, then out.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "reprorouter: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprorouter:", err)
	os.Exit(1)
}
