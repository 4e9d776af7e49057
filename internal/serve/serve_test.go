package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/repeats"
	"repro/internal/seedindex"
	"repro/internal/seq"
)

func post(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

func decode(t *testing.T, raw []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return r
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})
	return s, ts
}

func TestAnalyzeMissThenHit(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 2, Metrics: reg})

	req := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3}}
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	first := decode(t, raw)
	if first.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", first.Cache)
	}
	firstRep, err := first.DecodeReport()
	if err != nil {
		t.Fatalf("report payload: %v", err)
	}
	if n := len(firstRep.Tops); n != 3 {
		t.Errorf("tops = %d, want 3", n)
	}

	resp, raw = post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	second := decode(t, raw)
	if second.Cache != "hit" {
		t.Errorf("second request cache = %q, want hit", second.Cache)
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Error("cached report bytes differ from fresh report bytes")
	}

	snap := reg.Snapshot()
	if snap.Counters["cache/hits"] != 1 || snap.Counters["cache/misses"] != 1 {
		t.Errorf("cache counters = hits %d misses %d, want 1/1",
			snap.Counters["cache/hits"], snap.Counters["cache/misses"])
	}
	if snap.Counters["serve/completed"] != 2 {
		t.Errorf("serve/completed = %d, want 2", snap.Counters["serve/completed"])
	}
	if snap.Histograms["serve/e2e_ns"].Count != 2 {
		t.Errorf("e2e histogram count = %d, want 2", snap.Histograms["serve/e2e_ns"].Count)
	}
}

func TestCacheKeyCanonicalisation(t *testing.T) {
	// Different spellings of the same analysis must share a cache
	// entry: default vs explicit matrix, whitespace, lower case.
	_, ts := newTestServer(t, Config{Workers: 1})
	_, raw := post(t, ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3}})
	if got := decode(t, raw).Cache; got != "miss" {
		t.Fatalf("first = %q, want miss", got)
	}
	_, raw = post(t, ts.URL, Request{Sequence: "  atgcatgcatgc\n", Params: Params{Matrix: "paper-dna", Tops: 3, GapOpen: 2, GapExt: 1}})
	if got := decode(t, raw).Cache; got != "hit" {
		t.Errorf("equivalent spelling = %q, want hit (key not canonical)", got)
	}
	// min_pairs 0 selects the delineation default, so it shares the
	// entry of an explicit default.
	_, raw = post(t, ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3, MinPairs: repeats.DefaultMinPairs}})
	if got := decode(t, raw).Cache; got != "hit" {
		t.Errorf("explicit default min_pairs = %q, want hit (key not canonical)", got)
	}
	// A different parameter must not collide.
	_, raw = post(t, ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}})
	if got := decode(t, raw).Cache; got != "miss" {
		t.Errorf("different tops = %q, want miss", got)
	}
	// A preset resolves to explicit seed knobs: spelling out its own
	// default seed_k is the same analysis, another seed_k is not.
	def, err := seedindex.PresetConfig(seedindex.PresetBalanced, 4)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(seedK int) string {
		r := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Preset: seedindex.PresetBalanced, SeedK: seedK}}
		if err := r.canonicalise(0); err != nil {
			t.Fatal(err)
		}
		return CacheKey(&r)
	}
	if keyOf(0) != keyOf(def.K) {
		t.Errorf("balanced and balanced with its default seed_k %d key differently", def.K)
	}
	if keyOf(0) == keyOf(def.K+1) {
		t.Errorf("seed_k %d shares the default's key", def.K+1)
	}
}

// Lanes is an execution knob: strict-mode reports are identical for
// every value (the root package's TestLanesDifferential), so every
// spelling shares one key, and no v2 key equals the v1 key the previous
// binary derived for the same request.
func TestCacheKeyIgnoresLanes(t *testing.T) {
	base := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3}}
	if err := base.canonicalise(0); err != nil {
		t.Fatal(err)
	}
	want := CacheKey(&base)
	for _, lanes := range []int{0, 1, 4, 8, 16, 32} {
		r := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3, Lanes: lanes}}
		if err := r.canonicalise(0); err != nil {
			t.Fatal(err)
		}
		if r.Lanes != lanes {
			t.Errorf("canonicalise rewrote lanes %d to %d", lanes, r.Lanes)
		}
		if got := CacheKey(&r); got != want {
			t.Errorf("lanes %d keys %s, want %s", lanes, got, want)
		}
	}
	seqSum := sha256.Sum256([]byte(base.Sequence))
	for _, lanes := range []int{1, 4, 8, 16} {
		v1 := sha256.Sum256([]byte(fmt.Sprintf("v1|%x|%s|%d|%d|%d|%d|%d|%d|%t|%t", seqSum, base.Matrix,
			base.GapOpen, base.GapExt, base.Tops, base.MinScore, base.MinPairs, lanes, false, false)))
		if want == hex.EncodeToString(v1[:]) {
			t.Errorf("v2 key equals the v1 key at lanes %d", lanes)
		}
	}
	spec := base
	spec.Speculative = true
	if CacheKey(&spec) == want {
		t.Error("speculative request shares the strict key")
	}
}

func TestBackpressure429(t *testing.T) {
	// No workers started: admitted jobs sit in the queue, so the
	// second request must be shed with 429 + Retry-After.
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seqStr := strings.Repeat("ATGC", 10)
	first := postAsync(ts.URL, Request{Sequence: seqStr, Params: Params{Matrix: "paper-dna"}, TimeoutMS: 500})
	// Wait for the first request to occupy the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Gauges["serve/queue_depth"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := post(t, ts.URL, Request{Sequence: seqStr, Params: Params{Matrix: "paper-dna"}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The queued request's deadline expires with no worker to serve
	// it; the handler reports gateway timeout.
	if got := <-first; got != http.StatusGatewayTimeout {
		t.Errorf("queued request status = %d, want 504", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve/shed_queue_full"] != 1 {
		t.Errorf("shed_queue_full = %d, want 1", snap.Counters["serve/shed_queue_full"])
	}
}

func TestDeadlineExpiredInQueue(t *testing.T) {
	// A worker that picks up an already-expired job must drop it
	// without running the engine.
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 4, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postAsync(ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna"}, TimeoutMS: 50})
	// Start workers only after the deadline has passed.
	time.Sleep(80 * time.Millisecond)
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	if got := <-resp; got != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", got)
	}
	waitFor(t, func() bool { return reg.Snapshot().Counters["serve/shed_deadline"] == 1 },
		"shed_deadline counter")
	if cells := reg.Snapshot().Counters["engine/cells"]; cells != 0 {
		t.Errorf("engine ran %d cells for an expired job", cells)
	}
}

// TestRequestDeadline: a request without timeout_ms gets the daemon's
// default deadline, even one past two minutes; a client-requested
// deadline is capped at the larger of two minutes and the default.
func TestRequestDeadline(t *testing.T) {
	const min10 = 10 * 60 * 1000
	cases := []struct {
		def       time.Duration
		timeoutMS int
		want      time.Duration
	}{
		{5 * time.Minute, 0, 5 * time.Minute},
		{5 * time.Minute, 1000, time.Second},
		{5 * time.Minute, min10, 5 * time.Minute},
		{0, 0, 30 * time.Second},
		{0, min10, 2 * time.Minute},
	}
	for _, c := range cases {
		cfg := Config{DefaultTimeout: c.def}.withDefaults()
		if got := cfg.deadline(c.timeoutMS); got != c.want {
			t.Errorf("DefaultTimeout %v, timeout_ms %d: deadline %v, want %v", c.def, c.timeoutMS, got, c.want)
		}
	}
}

// postAsync fires a request from a goroutine and delivers its status
// code (0 on transport error). It avoids t.Fatal off the test
// goroutine.
func postAsync(url string, req Request) <-chan int {
	ch := make(chan int, 1)
	go func() {
		body, err := json.Marshal(req)
		if err != nil {
			ch <- 0
			return
		}
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- 0
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	return ch
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGracefulDrain(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Metrics: reg})

	// Launch a batch of slow-ish requests, then drain mid-flight:
	// every admitted request must complete, new ones must be shed.
	q := seq.SyntheticTitin(150, 7)
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = <-postAsync(ts.URL, Request{Sequence: q.String(), Params: Params{Tops: 4 + i}})
		}(i)
	}
	waitFor(t, func() bool { return reg.Snapshot().Counters["serve/admitted"] > 0 }, "first admission")

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	var served int
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable: // admitted after drain began
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if served == 0 {
		t.Error("no request completed across the drain")
	}

	// After the drain: health reports draining, analyze sheds 503.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want 503", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("draining healthz without Retry-After")
	}
	resp, _ := post(t, ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("analyze after drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining shed without Retry-After")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSequenceLen: 64})
	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"empty sequence", Request{}, http.StatusBadRequest},
		{"bad matrix", Request{Sequence: "ATGC", Params: Params{Matrix: "nope"}}, http.StatusBadRequest},
		{"bad backend", Request{Sequence: "ATGC", Backend: "gpu"}, http.StatusBadRequest},
		{"bad lanes", Request{Sequence: "ATGC", Params: Params{Lanes: 3}}, http.StatusBadRequest},
		{"too many workers", Request{Sequence: "ATGC", Backend: BackendParallel, Workers: 1000000}, http.StatusBadRequest},
		{"workers over the limit on any backend", Request{Sequence: "ATGC", Workers: maxFanout + 1}, http.StatusBadRequest},
		{"negative slaves", Request{Sequence: "ATGC", Backend: BackendCluster, Slaves: -1}, http.StatusBadRequest},
		{"too many threads per slave", Request{Sequence: "ATGC", Backend: BackendCluster, ThreadsPerSlave: maxFanout + 1}, http.StatusBadRequest},
		{"oversized", Request{Sequence: strings.Repeat("A", 65)}, http.StatusBadRequest},
		{"bad residues", Request{Sequence: "ATGC123", Params: Params{Matrix: "paper-dna"}}, http.StatusUnprocessableEntity},
		{"unknown preset", Request{Sequence: "ATGC", Params: Params{Preset: "turbo"}}, http.StatusBadRequest},
		{"seed_k without a preset", Request{Sequence: "ATGC", Params: Params{SeedK: 5}}, http.StatusBadRequest},
		{"invalid seed_mask", Request{Sequence: "ATGC", Params: Params{Preset: seedindex.PresetBalanced, SeedMask: "0110"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
	// A removed field is an unknown field.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(`{"sequence":"ATGC","striped":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("\"striped\": status %d, want 400", resp.StatusCode)
	}
	// The limit itself is admitted, and the error names it.
	if err := (&Request{Sequence: "ATGC", Workers: maxFanout, Slaves: maxFanout}).canonicalise(0); err != nil {
		t.Errorf("fan-out at the limit rejected: %v", err)
	}
	err = (&Request{Sequence: "ATGC", Slaves: maxFanout + 1}).canonicalise(0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxFanout)) {
		t.Errorf("over-limit error %v does not name the limit %d", err, maxFanout)
	}

	resp, err = http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", resp.StatusCode)
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Traces: trace.NewCollector(0, 0)})
	hresp, _ := post(t, ts.URL, Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve/admitted"] != 1 {
		t.Errorf("serve/admitted = %d, want 1", snap.Counters["serve/admitted"])
	}

	// The journal tail is gone: bare /trace is no route, while the
	// request's own trace still answers under the ID the response named.
	resp, err = http.Get(ts.URL + "/trace?n=50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /trace?n=50 = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/trace/" + hresp.Header.Get("X-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []trace.SpanJSON `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/{id} = %d, %v", resp.StatusCode, err)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	joined := fmt.Sprint(names)
	for _, want := range []string{"request", "queue.wait"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q span: %v", want, names)
		}
	}
}
