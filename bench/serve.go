package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/seq"
	"repro/internal/serve"
)

// serveWorkload is closed-loop HTTP traffic against an in-process
// serve.Server behind a real loopback listener. The callers are
// pipelines that wait for a reply, so each of the C clients sends its
// next request when the last one has been answered and verified.
type serveWorkload struct {
	Name      string
	Why       string
	MissEvery int // every n-th request of a client is a never-seen sequence (0 = never)
	Config    func(sc scale, c int) serve.Config
}

// analyzeRequest is one request of the traffic: the body POSTed and the
// sequence behind it. A hot request also keeps the report the server
// computed for it at pre-warm and the digest of that report's tops: every
// later response on its key must be a cache hit carrying that report byte
// for byte. The workloads keep the hot set resident (64 keys in use all
// the time against 256 entries), so a hot key that is computed again is a
// failure.
type analyzeRequest struct {
	Body   []byte
	Seq    *seq.Sequence
	Hot    bool
	Report []byte // written by pre-warm, before the load starts
	Digest string
}

// subSeed derives the k-th independent seed of a run (splitmix64).
func subSeed(seed, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + k + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newRequest builds the k-th request of a run: a titin-like sequence,
// `tops` set, everything else the JSON default.
func newRequest(sc scale, seed, k uint64, hot bool) *analyzeRequest {
	q := seq.SyntheticTitin(sc.HotLen, subSeed(seed, k))
	body := fmt.Sprintf(`{"sequence":%q,"tops":%d}`, q.String(), sc.HotTops)
	return &analyzeRequest{Body: []byte(body), Seq: q, Hot: hot}
}

// testServer is the server under load.
type testServer struct {
	Srv *serve.Server
	hs  *http.Server
	URL string
}

func startServer(cfg serve.Config) (*testServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.New(cfg)
	s.Start()
	ts := &testServer{Srv: s, hs: &http.Server{Handler: s.Handler()}, URL: "http://" + ln.Addr().String()}
	go ts.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return ts, nil
}

// stop shuts the listener and drains the worker pool.
func (ts *testServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.hs.Shutdown(ctx); err != nil {
		return err
	}
	return ts.Srv.Drain(ctx)
}

// Outcomes of one request.
const (
	opHit = iota
	opMiss
	opShed   // 429 or 503
	opFailed // transport error, other status, or verification failure
)

// op is one finished request.
type op struct {
	End   time.Duration // offset from the start of the load
	MS    float64       // client-observed round trip
	Kind  int
	Bytes int
}

// client is one closed-loop caller with its own connection.
type client struct {
	id     int
	hc     *http.Client
	url    string
	sc     scale
	seed   uint64
	rng    *rand.Rand
	params align.Params
	buf    bytes.Buffer
	sent   uint64
	fresh  uint64 // never-seen sequences generated so far
	ops    []op
	errs   []string
	rec    *recorder
}

func newClients(n int, url string, sc scale, seed uint64, params align.Params) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			id: i, url: url + "/v1/analyze", sc: sc, seed: seed, params: params,
			hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			rng: rand.New(rand.NewPCG(seed, uint64(i))),
		}
	}
	return cs
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body to the server under load.
func (c *client) post(body []byte) (int, []byte, error) { return c.postTo(c.url, body) }

// postTo sends one body and returns the status and the response body,
// which stays valid until the next call.
func (c *client) postTo(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// splitEnvelope cuts a 200 response into its cache outcome and its raw
// report without decoding either: the envelope is written by hand as
// {"cache":"hit","elapsed_ms":0.05,"report":{...}}\n.
func splitEnvelope(body []byte) (outcome string, report []byte, err error) {
	const cacheKey, reportKey = `"cache":"`, `"report":`
	i := bytes.Index(body, []byte(cacheKey))
	k := bytes.Index(body, []byte(reportKey))
	if i < 0 || k < i || !bytes.HasSuffix(body, []byte("}\n")) {
		return "", nil, fmt.Errorf("response is not an analyze envelope: %.80q", body)
	}
	rest := body[i+len(cacheKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", nil, fmt.Errorf("unterminated cache outcome: %.80q", body)
	}
	return string(rest[:j]), body[k+len(reportKey) : len(body)-2], nil
}

// verify checks one response. A cache hit must carry the report stored
// for its key at pre-warm, byte for byte. A computed response must decode
// to tops that pass the structural validator; its report and the digest
// of its tops are returned for pre-warm to keep. A hot key computed after
// pre-warm fails.
func (c *client) verify(req *analyzeRequest, status int, body []byte, err error) (kind int, msg string, report []byte, digest string) {
	switch {
	case err != nil:
		return opFailed, err.Error(), nil, ""
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return opShed, fmt.Sprintf("refused with %d", status), nil, ""
	case status != http.StatusOK:
		return opFailed, fmt.Sprintf("status %d: %.80q", status, body), nil, ""
	}
	outcome, report, err := splitEnvelope(body)
	if err != nil {
		return opFailed, err.Error(), nil, ""
	}
	if outcome == "hit" {
		if !bytes.Equal(report, req.Report) {
			return opFailed, "cache hit differs from the report computed for its key", nil, ""
		}
		return opHit, "", nil, ""
	}
	if req.Report != nil {
		return opFailed, "hot key computed again after pre-warm", nil, ""
	}
	var rep repro.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return opFailed, "report: " + err.Error(), nil, ""
	}
	if err := validateTops(rep.Tops, c.params, req.Seq.Codes); err != nil {
		return opFailed, err.Error(), nil, ""
	}
	return opMiss, "", report, digestTops(rep.Tops)
}

// next picks the client's next request: a uniform draw from the hot
// set, or every MissEvery-th time a sequence no one has sent before.
func (c *client) next(w *serveWorkload, hot []*analyzeRequest) *analyzeRequest {
	c.sent++
	if w.MissEvery > 0 && c.sent%uint64(w.MissEvery) == 0 {
		c.fresh++
		return newRequest(c.sc, c.seed, 1<<40|uint64(c.id)<<32|c.fresh, false)
	}
	return hot[c.rng.IntN(len(hot))]
}

// do runs one request cycle; with a recorder it leaves a request span
// with client.encode, http.roundtrip and client.verify children.
func (c *client) do(w *serveWorkload, hot []*analyzeRequest, rec *recorder, start time.Time) {
	id := len(c.ops)
	root := rec.start(id, -1, "request")
	sp := rec.start(id, root, "client.encode")
	req := c.next(w, hot)
	rec.end(sp)

	sp = rec.start(id, root, "http.roundtrip")
	t0 := time.Now()
	status, body, err := c.post(req.Body)
	rtt := time.Since(t0)
	rec.end(sp)

	sp = rec.start(id, root, "client.verify")
	kind, msg, _, _ := c.verify(req, status, body, err)
	rec.end(sp)
	rec.end(root)

	if msg != "" && len(c.errs) < 4 {
		c.errs = append(c.errs, msg)
	}
	c.ops = append(c.ops, op{End: time.Since(start), MS: float64(rtt.Nanoseconds()) / 1e6, Kind: kind, Bytes: len(body)})
}

// prewarm sends every hot request once and keeps the report each gets as
// the body all later hits on that key are held against. It returns per
// hot request the client-observed latency of this miss, the only kind
// serve-warm has.
func prewarm(r *Run, cs []*client, hot []*analyzeRequest) (missMS sample) {
	missMS = make(sample, len(hot))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := i; k < len(hot); k += len(cs) {
				t0 := time.Now()
				status, body, err := c.post(hot[k].Body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				kind, msg, report, digest := c.verify(hot[k], status, body, err)
				hot[k].Report, hot[k].Digest = append([]byte(nil), report...), digest
				mu.Lock()
				r.Attempted++
				if kind != opMiss {
					r.fail("pre-warm %d: outcome %d %s", k, kind, msg)
				}
				missMS[k] = ms
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	return missMS
}

// verifyHotSet holds every pre-warmed body against a direct
// repro.Analyze of its sequence, C at a time as the server computes
// them, and returns per hot request the digest of its tops and the wall
// time of the direct analysis: what the engine's share of a miss costs.
func verifyHotSet(r *Run, sc scale, hot []*analyzeRequest) (digests []string, solveS sample) {
	r.checked("hot-set bodies equal direct repro.Analyze")
	digests, solveS = make([]string, len(hot)), make(sample, len(hot))
	var wg sync.WaitGroup
	var mu sync.Mutex
	c := clients()
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(hot); k += c {
				t0 := time.Now()
				want, err := repro.Analyze("serve", hot[k].Seq.String(), repro.Options{NumTops: sc.HotTops})
				wall := time.Since(t0).Seconds()
				mu.Lock()
				r.Attempted++
				switch {
				case err != nil:
					r.fail("hot request %d: %v", k, err)
				case hot[k].Digest != digestTops(want.Tops):
					r.fail("hot request %d: served tops differ from a direct analysis", k)
				default:
					digests[k], solveS[k] = hot[k].Digest, wall
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return digests, solveS
}

// loadResult is the measured phase of a serve workload.
type loadResult struct {
	Windows int
	Len     time.Duration
	Ops     []op      // every request, all clients
	CPU     []float64 // process CPU seconds at each window boundary (Windows+1 values)
	Spans   []span
}

// window returns the index of the window an op finished in.
func (l *loadResult) window(o op) int { return int(o.End / l.Len) }

// load runs the closed loop for `windows` windows. traced says which
// windows record spans (nil = none).
func (w *serveWorkload) load(cs []*client, hot []*analyzeRequest, windows int, winLen time.Duration, traced func(win int) bool) *loadResult {
	res := &loadResult{Windows: windows, Len: winLen, CPU: make([]float64, windows+1)}
	var tracing atomic.Bool
	tracing.Store(traced != nil && traced(0))
	for _, c := range cs {
		// Room for every op of the load from the start: a list that grew
		// with the load raised the live heap, so the collector ran ever
		// less often and hit_p99_ms fell by half over five seconds. The
		// loads of one server instance share the list.
		if cap(c.ops) < 1<<18 {
			c.ops = make([]op, 0, 1<<18)
		}
		c.ops, c.rec = c.ops[:0], nil
	}
	start := time.Now()
	res.CPU[0] = cpuSeconds()
	deadline := start.Add(time.Duration(windows) * winLen)

	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if traced != nil {
				c.rec = newRecorder(start)
			}
			for time.Now().Before(deadline) {
				var rec *recorder
				if tracing.Load() {
					rec = c.rec
				}
				c.do(w, hot, rec, start)
			}
		}(c)
	}
	// The sampler reads the process CPU clock at every window boundary
	// and switches tracing for the window that begins there.
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * winLen)))
		res.CPU[i] = cpuSeconds()
		tracing.Store(traced != nil && i < windows && traced(i))
	}
	wg.Wait()

	merged := newRecorder(start)
	for _, c := range cs {
		res.Ops = append(res.Ops, c.ops...)
		if c.rec != nil {
			// Trace ids are per client; make them unique across clients.
			for i := range c.rec.spans {
				c.rec.spans[i].Trace = c.rec.spans[i].Trace*len(cs) + c.id
			}
			merged.merge(c.rec)
		}
	}
	res.Spans = merged.spans
	return res
}

// account counts the load's requests into the run.
func (l *loadResult) account(r *Run, cs []*client) {
	r.checked("responses byte-identical to first body per key")
	for _, o := range l.Ops {
		r.Attempted++
		if o.Kind == opFailed || o.Kind == opShed {
			r.Failed++
		}
	}
	for _, c := range cs {
		for _, e := range c.errs {
			if len(r.Errors) < 8 {
				r.Errors = append(r.Errors, e)
			}
		}
	}
}

// perWindow returns verified responses per second and CPU seconds per
// verified response for each window that keep() selects.
func (l *loadResult) perWindow(keep func(win int) bool) (rps, cpuPer sample) {
	ok := make([]int, l.Windows)
	for _, o := range l.Ops {
		if win := l.window(o); win < l.Windows && (o.Kind == opHit || o.Kind == opMiss) {
			ok[win]++
		}
	}
	for win, n := range ok {
		if keep != nil && !keep(win) {
			continue
		}
		rps = append(rps, float64(n)/l.Len.Seconds())
		if n > 0 {
			cpuPer = append(cpuPer, (l.CPU[win+1]-l.CPU[win])/float64(n))
		}
	}
	return rps, cpuPer
}

// latency returns the p-th percentile of the round trips of one kind in
// each window that saw any, and how many round trips that is in all.
func (l *loadResult) latency(kind int, p float64) (perWindow sample, n int) {
	ms := make([]sample, l.Windows)
	for _, o := range l.Ops {
		if win := l.window(o); win < l.Windows && o.Kind == kind {
			ms[win] = append(ms[win], o.MS)
		}
	}
	for _, w := range ms {
		if len(w) > 0 {
			perWindow = append(perWindow, percentile(w, p))
			n += len(w)
		}
	}
	return perWindow, n
}

// prepare is one set-up of a serve workload: generate the hot set,
// start the server, pre-warm it.
func (w *serveWorkload) prepare(r *Run, cfg runConfig, params align.Params) (*testServer, []*client, []*analyzeRequest, sample, error) {
	hot := make([]*analyzeRequest, cfg.Scale.HotSet)
	for k := range hot {
		hot[k] = newRequest(cfg.Scale, cfg.Seed, uint64(k), true)
	}
	ts, err := startServer(w.Config(cfg.Scale, clients()))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cs := newClients(clients(), ts.URL, cfg.Scale, cfg.Seed, params)
	return ts, cs, hot, prewarm(r, cs, hot), nil
}

// serveSamples collects what the set-ups and load windows of one
// untraced run measured.
type serveSamples struct {
	Setups           sample   // per set-up
	Prewarm, Solve   []sample // per hot request: its pre-warm miss [ms] and its direct analysis [s] of each set-up
	RPS              sample   // per window, as are the four below; on serve-warm per slice, read against the reference
	HitP50, HitP99   sample
	MissP50, MissP95 sample
	Hits, Misses     int

	// serve-warm only, per slice: the reference's figures and the
	// server's as the clock gave them.
	Ref struct{ RPS, P50 sample }
	Raw struct{ RPS, P50, P99 sample }
}

func (w *serveWorkload) run(cfg runConfig) *Run {
	r := &Run{Workload: w.Name, Trace: cfg.Trace, Seed: cfg.Seed, Seconds: cfg.Seconds, Env: stampEnv()}
	got := make(map[string]Value)
	defer func() {
		r.setMetrics(got)
		r.Correct = r.Failed == 0
	}()
	params, err := scoringModel("")
	if err != nil {
		r.fail("%v", err)
		return r
	}

	windows := int(cfg.Seconds/cfg.Scale.Window.Seconds() + 0.5)
	if windows < 4 {
		windows = 4
	}
	n := cfg.Scale.Setups
	if cfg.Trace {
		n = 1
	}
	// Each set-up is followed by its share of the measurement, so no
	// server is started only to be thrown away and one unlucky instance
	// cannot colour a whole run.
	var m serveSamples
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		ts, cs, hot, missMS, err := w.prepare(r, cfg, params)
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		m.Setups = append(m.Setups, time.Since(t0).Seconds())
		if m.Prewarm == nil {
			m.Prewarm, m.Solve = make([]sample, len(hot)), make([]sample, len(hot))
		}
		for k, ms := range missMS {
			m.Prewarm[k] = append(m.Prewarm[k], ms)
		}
		if r.Failed == 0 {
			w.measure(r, cfg, ts, cs, hot, i == 0, (windows+n-1)/n, got, &m)
		}
		for _, c := range cs {
			c.close()
		}
		if err := ts.stop(); err != nil {
			r.fail("server stop: %v", err)
		}
		if r.Failed > 0 {
			return r
		}
	}
	if cfg.Trace {
		return r
	}
	counted := func(v Value, n int) Value { v.N = n; return v }
	// One analysis of a hot request is a few tens of milliseconds, short
	// enough for a neighbour's burst to cover it: each request keeps the
	// quiet one of its three, and the percentiles are over the requests.
	quiet := func(perRequest []sample) (s sample) {
		for _, x := range perRequest {
			s = append(s, x.quietLow().Value)
		}
		return s
	}
	if len(m.Ref.RPS) > 0 {
		r.Aux = map[string]Value{
			"ref.rps":        m.Ref.RPS.quietHigh().in("1/s"),
			"ref.p50_ms":     m.Ref.P50.quietLow().in("ms"),
			"raw.rps":        m.Raw.RPS.quietHigh().in("1/s"),
			"raw.hit_p50_ms": m.Raw.P50.quietLow().in("ms"),
			"raw.hit_p99_ms": m.Raw.P99.quietLow().in("ms"),
		}
	}
	got["setup_s"] = m.Setups.value()
	got["solve_s"] = quiet(m.Solve).value()
	got["rps"] = m.RPS.quietHigh()
	hit := counted(m.HitP50.quietLow(), m.Hits)
	got["hit_p50_ms"] = hit
	if w.MissEvery == 0 {
		got["hit_p99_ms"] = counted(m.HitP99.quietLow(), m.Hits)
		// The load never misses: the misses of this workload are the
		// pre-warm's, one per hot request and set-up. Sixty-four have three
		// beyond their p95 and ten runs spread by 7-19%; as the issue asks
		// the p95 of serve-mixed only, this workload restates its median.
		miss := quiet(m.Prewarm).value()
		got["miss_p50_ms"] = miss
		got["miss_p95_ms"] = miss.restated("miss_p50_ms", miss.Value)
	} else {
		// A tenth of the time goes to hits here: some 9000 in 14 s, six
		// beyond the p99 of a window, and ten quiet runs spread by 18%.
		// The issue asks for the p99 on serve-warm only; this workload
		// restates its median.
		got["hit_p99_ms"] = hit.restated("hit_p50_ms", hit.Value)
		got["miss_p50_ms"] = counted(m.MissP50.quietLow(), m.Misses)
		got["miss_p95_ms"] = counted(m.MissP95.quietLow(), m.Misses)
	}
	return r
}

// measure runs what follows one set-up: the check of the hot set against
// direct analyses (and, once, against golden.json); then the traced pass,
// or `windows` windows of untraced load whose per-window samples it
// appends to m. The all-hits workload measures beside the reference.
func (w *serveWorkload) measure(r *Run, cfg runConfig, ts *testServer, cs []*client, hot []*analyzeRequest, first bool, windows int, got map[string]Value, m *serveSamples) {
	digests, solveS := verifyHotSet(r, cfg.Scale, hot)
	for k, wall := range solveS {
		if wall > 0 {
			m.Solve[k] = append(m.Solve[k], wall)
		}
	}
	if first {
		if cfg.Scale.Golden && cfg.Seed == goldenSeed {
			g, err := readGolden()
			if err != nil {
				r.fail("golden: %v", err)
				return
			}
			for k, d := range digests {
				want := ""
				if k < len(g.HotSet) {
					want = g.HotSet[k]
				}
				checkGolden(r, fmt.Sprintf("hot request %d", k), d, want)
			}
		}
	}
	if r.Failed > 0 {
		return
	}
	if cfg.Trace {
		w.traced(r, cfg, ts, cs, hot, windows, got)
		return
	}
	if w.MissEvery == 0 {
		w.loadBesideReference(r, cfg, cs, hot, windows, m)
		return
	}
	l := w.load(cs, hot, windows, cfg.Scale.Window, nil)
	l.account(r, cs)
	rps, _ := l.perWindow(nil)
	m.RPS = append(m.RPS, rps...)
	add := func(into *sample, kind int, p float64) int {
		perWindow, n := l.latency(kind, p)
		*into = append(*into, perWindow...)
		return n
	}
	m.Hits += add(&m.HitP50, opHit, 50)
	add(&m.HitP99, opHit, 99)
	m.Misses += add(&m.MissP50, opMiss, 50)
	add(&m.MissP95, opMiss, 95)
}

// loadBesideReference is the untraced load of serve-warm: slices of a
// quarter window against the server, each followed by a slice of the
// reference (reference.go), `windows` windows in all. A slice's rate and
// hit percentiles are read against the reference's and appended to m as
// one sample each; the figures as the clock gave them are kept beside
// them.
func (w *serveWorkload) loadBesideReference(r *Run, cfg runConfig, cs []*client, hot []*analyzeRequest, windows int, m *serveSamples) {
	ref, err := startReference(len(cs))
	if err != nil {
		r.fail("reference: %v", err)
		return
	}
	defer ref.stop()
	slice := cfg.Scale.Window / 4
	ref.slice(slice) //nolint:errcheck // opens the reference's connections
	for i := 0; i < 2*windows; i++ {
		l := w.load(cs, hot, 1, slice, nil)
		l.account(r, cs)
		beside, err := ref.slice(slice)
		if err != nil {
			r.fail("%v", err)
			return
		}
		rps, _ := l.perWindow(nil)
		p50, n := l.latency(opHit, 50)
		p99, _ := l.latency(opHit, 99)
		if n == 0 {
			r.fail("a slice of load saw no cache hit")
			return
		}
		m.Hits += n
		m.Ref.RPS, m.Ref.P50 = append(m.Ref.RPS, beside.RPS), append(m.Ref.P50, beside.P50)
		m.Raw.RPS, m.Raw.P50, m.Raw.P99 = append(m.Raw.RPS, rps[0]), append(m.Raw.P50, p50[0]), append(m.Raw.P99, p99[0])
		sRPS, sP50, sP99 := beside.scaled(rps[0], p50[0], p99[0])
		m.RPS, m.HitP50, m.HitP99 = append(m.RPS, sRPS), append(m.HitP50, sP50), append(m.HitP99, sP99)
	}
	if ref.errs > 0 {
		r.fail("%d exchanges with the reference failed", ref.errs)
	}
}
