package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine/alignments").Add(11)
	reg.Histogram("engine/align_ns").Observe(time.Millisecond)

	srv, err := StartDebug("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.Addr, "127.0.0.1:") {
		t.Fatalf("addr = %q, want localhost bind", srv.Addr)
	}

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["engine/alignments"] != 11 {
		t.Fatalf("metrics = %+v", snap.Counters)
	}
	if snap.Histograms["engine/align_ns"].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}

	// The journal tail route is gone; only /trace/{id} remains.
	resp, err := http.Get(fmt.Sprintf("http://%s/trace?n=5", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /trace: status %d, want 404", resp.StatusCode)
	}

	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof cmdline empty")
	}
}

// TestSpansDroppedMatchesCollector: every /metrics scrape raises
// trace/spans_dropped to the collector's lifetime drop total. Scrapes
// that race on the same gap must raise it once between them, not add
// it once each.
func TestSpansDroppedMatchesCollector(t *testing.T) {
	reg := NewRegistry()
	col := trace.NewCollector(1, 1)
	rec := col.Rec(trace.NewTraceID())
	var arrive sync.WaitGroup
	mux := http.NewServeMux()
	Mount(mux, reg, col, func() {
		// Hold each scrape until the whole round has arrived, so they
		// reach the counter sync together.
		arrive.Done()
		arrive.Wait()
	})
	scrape := func() {
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}
	dropped := reg.Counter("trace/spans_dropped")
	check := func(when string) {
		t.Helper()
		if got, want := dropped.Load(), int64(col.DroppedTotal()); got != want {
			t.Fatalf("%s: trace/spans_dropped = %d, collector dropped %d", when, got, want)
		}
	}

	rec.Add(trace.Span{}) // fills the one-span buffer
	rec.Add(trace.Span{}) // dropped
	arrive.Add(1)
	scrape()
	check("one scrape")
	const scrapes = 64
	for round := 0; round < 1000; round++ {
		rec.Add(trace.Span{})
		arrive.Add(scrapes)
		var wg sync.WaitGroup
		for i := 0; i < scrapes; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scrape()
			}()
		}
		wg.Wait()
		check(fmt.Sprintf("round %d of %d concurrent scrapes", round, scrapes))
	}
}

func TestDebugServerDefaultHost(t *testing.T) {
	srv, err := StartDebug(":0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Bare-port addresses must bind localhost, not all interfaces.
	if !strings.HasPrefix(srv.Addr, "127.0.0.1:") {
		t.Fatalf("addr = %q, want 127.0.0.1 default", srv.Addr)
	}
}

// TestCloseWaitsForInFlightScrape is the regression test for the
// shutdown path: Close must let a slow in-flight scrape finish its
// body (the old srv.Close() aborted it mid-response) and must leave no
// server goroutines behind.
func TestCloseWaitsForInFlightScrape(t *testing.T) {
	before := runtime.NumGoroutine()

	handlerEntered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(handlerEntered)
		<-release // hold the scrape open across the Close call
		io.WriteString(w, `{"ok":true}`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	type result struct {
		body []byte
		err  error
	}
	scraped := make(chan result, 1)
	go func() {
		resp, err := client.Get("http://" + s.Addr + "/slow")
		if err != nil {
			scraped <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		scraped <- result{body, err}
	}()
	<-handlerEntered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Close must block on the in-flight scrape, not abort it.
	select {
	case err := <-closed:
		t.Fatalf("Close returned while a scrape was in flight (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New connections must already be refused while draining.
	if _, err := net.DialTimeout("tcp", s.Addr, 250*time.Millisecond); err == nil {
		// A successful dial can race the listener close on some
		// platforms; what matters is the request fails.
		if _, err := client.Get("http://" + s.Addr + "/slow"); err == nil {
			t.Error("new request accepted during drain")
		}
	}

	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := <-scraped
	if res.err != nil {
		t.Fatalf("slow scrape failed during shutdown: %v", res.err)
	}
	if string(res.body) != `{"ok":true}` {
		t.Fatalf("scrape body truncated: %q", res.body)
	}

	// No goroutine leaks: the serve loop, the connection handler, and
	// the transport's connection goroutines must all wind down.
	tr.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseForceClosesHungScrape verifies the fallback: a scrape that
// outlives CloseTimeout is cut off rather than hanging Close forever.
func TestCloseForceClosesHungScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out CloseTimeout")
	}
	entered := make(chan struct{})
	block := make(chan struct{}) // never closed: a truly hung handler
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)

	go func() { http.Get("http://" + s.Addr + "/hang") }() //nolint:errcheck
	<-entered

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > CloseTimeout+2*time.Second {
		t.Fatalf("Close took %v, want ~CloseTimeout", elapsed)
	}
}
