package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

// startShard runs a real serve.Server behind an httptest listener.
func startShard(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return s, ts
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	rt := New(cfg)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func analyzeReq(seqStr string) serve.Request {
	return serve.Request{Sequence: seqStr, Params: serve.Params{Matrix: "paper-dna", Tops: 3}}
}

// keyOf computes the cache key the router will derive for req.
func keyOf(t *testing.T, req serve.Request) string {
	t.Helper()
	r := req
	if err := r.Canonicalise(0); err != nil {
		t.Fatalf("canonicalise: %v", err)
	}
	return serve.CacheKey(&r)
}

func postRouter(t *testing.T, url string, req serve.Request) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	return resp
}

func readJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal %q: %v", b, err)
	}
}

// fakeShard is a stub upstream for router-behaviour tests that do not
// need a real engine: counts requests, optionally delays, and can be
// switched to draining (503 everywhere, like a draining serve.Server).
type fakeShard struct {
	reqs     atomic.Int64
	delay    time.Duration
	draining atomic.Bool
	ts       *httptest.Server

	mu   sync.Mutex
	seen []string // "METHOD /path" of every request, in arrival order
}

func newFakeShard(t *testing.T, delay time.Duration) *fakeShard {
	t.Helper()
	f := &fakeShard{delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		f.reqs.Add(1)
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"cache":"miss","elapsed_ms":0,"report":{}}`)
	})
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.seen = append(f.seen, r.Method+" "+r.URL.Path)
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// TestRouterRoutesDeterministically: the same request always lands on
// the same shard, and the repeat is served from that shard's cache.
func TestRouterRoutesDeterministically(t *testing.T) {
	_, s1 := startShard(t, serve.Config{Workers: 1})
	_, s2 := startShard(t, serve.Config{Workers: 1})
	_, rts := newTestRouter(t, Config{Shards: []string{s1.URL, s2.URL}})

	req := analyzeReq("ATGCATGCATGC")
	first := postRouter(t, rts.URL, req)
	shard1 := first.Header.Get("X-Router-Shard")
	var r1 serve.Response
	readJSON(t, first, &r1)
	if first.StatusCode != http.StatusOK || r1.Cache != "miss" {
		t.Fatalf("first: status %d cache %q", first.StatusCode, r1.Cache)
	}

	second := postRouter(t, rts.URL, req)
	var r2 serve.Response
	readJSON(t, second, &r2)
	if got := second.Header.Get("X-Router-Shard"); got != shard1 {
		t.Fatalf("repeat routed to %s, first went to %s", got, shard1)
	}
	if r2.Cache != "hit" {
		t.Fatalf("repeat cache = %q, want hit (same shard, same key)", r2.Cache)
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Fatal("hit report differs from miss report")
	}

	// The router canonicalises exactly as a shard does, so a body that
	// over-asks for goroutines is refused here with the shard's 400.
	for _, bad := range []serve.Request{{Workers: 65}, {Slaves: -1}} {
		bad.Sequence = req.Sequence
		resp := postRouter(t, rts.URL, bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("workers %d slaves %d via router: status %d, want 400", bad.Workers, bad.Slaves, resp.StatusCode)
		}
	}
}

// TestRouterSingleflight: concurrent identical requests collapse to
// one upstream call; everyone gets the same answer.
func TestRouterSingleflight(t *testing.T) {
	f := newFakeShard(t, 100*time.Millisecond)
	rt, rts := newTestRouter(t, Config{Shards: []string{f.ts.URL}, Metrics: obs.NewRegistry()})

	const n = 16
	var wg sync.WaitGroup
	statuses := make([]int, n)
	flights := make([]string, n)
	body, _ := json.Marshal(analyzeReq("ATGCATGCATGC"))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(rts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			flights[i] = resp.Header.Get("X-Router-Flight")
		}(i)
	}
	wg.Wait()

	if got := f.reqs.Load(); got != 1 {
		t.Fatalf("upstream saw %d calls for %d identical concurrent requests, want 1", got, n)
	}
	leads, shared := 0, 0
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		switch flights[i] {
		case "lead":
			leads++
		case "shared":
			shared++
		}
	}
	if leads != 1 || shared != n-1 {
		t.Fatalf("leads=%d shared=%d, want 1/%d", leads, shared, n-1)
	}
	if v := rt.shared.Load(); v != int64(n-1) {
		t.Fatalf("router/flight_shared = %d, want %d", v, n-1)
	}
}

// TestRouterFailover: when the owning shard dies, the request retries
// the next ring node, succeeds, and the dead shard leaves the ring via
// passive detection.
func TestRouterFailover(t *testing.T) {
	victim := newFakeShard(t, 0)
	survivor := newFakeShard(t, 0)
	rt, rts := newTestRouter(t, Config{Shards: []string{victim.ts.URL, survivor.ts.URL}})

	// Find a request whose key the victim owns, so the kill forces a
	// real failover rather than a lucky miss.
	var req serve.Request
	found := false
	for i := 0; i < 64 && !found; i++ {
		req = analyzeReq("ATGCATGCATGC")
		req.Params.Tops = 1 + i // Tops is part of the cache key; ID is not
		owner, _ := rt.Ring().Lookup(keyOf(t, req))
		found = owner == victim.ts.URL
	}
	if !found {
		t.Fatal("no probe key landed on the victim shard")
	}

	victim.ts.CloseClientConnections()
	victim.ts.Close()

	resp := postRouter(t, rts.URL, req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Router-Shard"); got != survivor.ts.URL {
		t.Fatalf("answered by %s, want survivor %s", got, survivor.ts.URL)
	}
	if v := rt.failovers.Load(); v < 1 {
		t.Fatalf("router/failovers = %d, want >= 1", v)
	}
	if n := rt.Ring().Len(); n != 1 {
		t.Fatalf("ring size %d after passive markDown, want 1", n)
	}
}

// TestRouterDrainingShardLeavesRing: one probe round is one GET
// /healthz per shard, a 503 /healthz (the serve drain signal) removes
// the shard from the ring via the probe loop, and requests during the
// drain fail over with zero client-visible errors.
func TestRouterDrainingShardLeavesRing(t *testing.T) {
	draining := newFakeShard(t, 0)
	healthy := newFakeShard(t, 0)
	rt, rts := newTestRouter(t, Config{
		Shards:        []string{draining.ts.URL, healthy.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	rt.mon.probeAll()
	for _, f := range []*fakeShard{draining, healthy} {
		f.mu.Lock()
		seen := strings.Join(f.seen, ", ")
		f.mu.Unlock()
		if seen != "GET /healthz" {
			t.Fatalf("one probe round sent %q to %s, want only GET /healthz", seen, f.ts.URL)
		}
	}
	rt.Start()
	defer rt.Close()

	draining.draining.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for rt.Ring().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("draining shard never left the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if nodes := rt.Ring().Nodes(); len(nodes) != 1 || nodes[0] != healthy.ts.URL {
		t.Fatalf("ring = %v, want only the healthy shard", nodes)
	}

	// Every request now lands on the healthy shard, regardless of key.
	for i := 0; i < 8; i++ {
		req := analyzeReq("ATGCATGCATGC")
		req.Params.Tops = 1 + i // distinct cache keys
		resp := postRouter(t, rts.URL, req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d during drain: status %d", i, resp.StatusCode)
		}
	}

	// Un-drain: the probe loop re-admits the shard.
	draining.draining.Store(false)
	deadline = time.Now().Add(3 * time.Second)
	for rt.Ring().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("recovered shard never rejoined the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterHotKeyFanout: a key hammered past the threshold spreads
// over the replica set instead of pinning one shard.
func TestRouterHotKeyFanout(t *testing.T) {
	a := newFakeShard(t, 0)
	b := newFakeShard(t, 0)
	rt, rts := newTestRouter(t, Config{
		Shards:          []string{a.ts.URL, b.ts.URL},
		HotKeyThreshold: 4,
	})

	body, _ := json.Marshal(analyzeReq("ATGCATGCATGC"))
	for i := 0; i < 40; i++ {
		resp, err := http.Post(rts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if a.reqs.Load() == 0 || b.reqs.Load() == 0 {
		t.Fatalf("hot key did not fan out: shard a=%d b=%d", a.reqs.Load(), b.reqs.Load())
	}
	if v := rt.hotFanout.Load(); v == 0 {
		t.Fatal("router/hot_fanout never incremented")
	}
}

// TestRouterKillShardUnderLoad is the shard-kill end-to-end: concurrent
// load over real serve shards, one shard killed mid-run, and every
// single request must still succeed via retry.
func TestRouterKillShardUnderLoad(t *testing.T) {
	var shards []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := startShard(t, serve.Config{Workers: 1, CacheEntries: 64})
		shards = append(shards, ts)
	}
	urls := []string{shards[0].URL, shards[1].URL, shards[2].URL}
	rt, rts := newTestRouter(t, Config{Shards: urls, ProbeInterval: 20 * time.Millisecond})
	rt.Start()
	defer rt.Close()

	const (
		clients   = 4
		perClient = 10
	)
	var failures atomic.Int64
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := analyzeReq("ATGCATGCATGC")
				req.Params.Tops = 1 + c*perClient + i // distinct cache keys spread over the ring
				body, _ := json.Marshal(req)
				resp, err := http.Post(rts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("client %d req %d: %v", c, i, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d req %d: status %d", c, i, resp.StatusCode)
				}
				if c == 0 && i == 2 {
					close(killed) // signal the killer once load is flowing
				}
			}
		}(c)
	}

	// Kill shard 0 abruptly once requests are in flight.
	go func() {
		<-killed
		shards[0].CloseClientConnections()
		shards[0].Close()
	}()
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures after shard kill, want 0", n)
	}
}

// TestRouterTraceMerge: the merged /trace/{id} contains the router's
// route/upstream spans AND the shard's pipeline spans, re-based onto
// the router timeline inside the upstream window.
func TestRouterTraceMerge(t *testing.T) {
	col := trace.NewCollector(16, 256)
	_, s1 := startShard(t, serve.Config{Workers: 1, Traces: col})
	rcol := trace.NewCollector(16, 256)
	_, rts := newTestRouter(t, Config{Shards: []string{s1.URL}, Traces: rcol})

	resp := postRouter(t, rts.URL, analyzeReq("ATGCATGCATGC"))
	tid := resp.Header.Get("X-Trace-Id")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tid == "" {
		t.Fatal("router did not answer with X-Trace-Id")
	}

	tresp, err := http.Get(rts.URL + "/trace/" + tid)
	if err != nil {
		t.Fatalf("trace get: %v", err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace get: status %d", tresp.StatusCode)
	}
	var merged struct {
		Spans []trace.SpanJSON `json:"spans"`
	}
	readJSON(t, tresp, &merged)

	byName := map[string][]trace.SpanJSON{}
	for _, sp := range merged.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, want := range []string{"router.route", "router.upstream", "request"} {
		if len(byName[want]) == 0 {
			t.Fatalf("merged trace missing %q span; have %v", want, names(merged.Spans))
		}
	}
	// The shard's root span must sit inside its upstream window after
	// re-basing.
	up := byName["router.upstream"][0]
	req := byName["request"][0]
	if req.StartNS < up.StartNS || req.StartNS+req.DurNS > up.StartNS+up.DurNS {
		t.Fatalf("shard span [%d,+%d] outside upstream window [%d,+%d]",
			req.StartNS, req.DurNS, up.StartNS, up.DurNS)
	}
}

func names(spans []trace.SpanJSON) []string {
	var out []string
	for _, sp := range spans {
		out = append(out, sp.Name)
	}
	return out
}

// TestRouterHealthNoShards: a router with an empty ring reports 503 so
// an outer balancer stops sending it traffic.
func TestRouterHealthNoShards(t *testing.T) {
	_, rts := newTestRouter(t, Config{})
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty ring: status %d, want 503", resp.StatusCode)
	}
}
