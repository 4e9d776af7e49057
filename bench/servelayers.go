package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/shard"
)

// traced is the per-layer pass of a serve workload. Windows alternate
// untraced and traced, so the two halves see the same server state and
// their throughput ratio is the tracing overhead; the client-side
// latency rows come from the untraced half.
func (w *serveWorkload) traced(r *Run, cfg runConfig, ts *testServer, cs []*client, hot []*analyzeRequest, windows int, got map[string]Value) {
	windows += windows % 2
	isTraced := func(win int) bool { return win%2 == 1 }
	isPlain := func(win int) bool { return win%2 == 0 }

	hits0, misses0, evict0 := ts.Srv.Cache().Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l := w.load(cs, hot, windows, cfg.Scale.Window, isTraced)
	runtime.ReadMemStats(&ms1)
	hits1, misses1, evict1 := ts.Srv.Cache().Stats()
	l.account(r, cs)

	r.checked("span trees well formed")
	if err := wellFormed(l.Spans); err != nil {
		r.fail("spans: %v", err)
	}

	var hitMS, sizes sample
	var shed int
	for _, o := range l.Ops {
		if o.Kind == opShed {
			shed++
		}
		if win := l.window(o); win >= l.Windows || !isPlain(win) {
			continue
		}
		if o.Kind == opHit {
			hitMS = append(hitMS, o.MS)
			sizes = append(sizes, float64(o.Bytes))
		}
	}
	rpsPlain, cpuPer := l.perWindow(isPlain)
	rpsTraced, _ := l.perWindow(isTraced)
	got["serve.resp_bytes"] = sizes.value()
	got["serve.shed_frac"] = single(ratio(float64(shed), float64(len(l.Ops))))
	if w.MissEvery == 0 {
		// Only where every response is a hit is the process's CPU per
		// response the cost of a hit (load generator included).
		got["serve.cpu_us_per_hit"] = cpuPer.scaled(1e6)
	}
	got["trace_overhead_frac"] = single(1 - ratio(median(rpsTraced), median(rpsPlain)))
	got["trace.spans"] = single(float64(len(l.Spans)))
	got["cache.hit_ratio"] = single(ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))
	got["cache.evictions"] = single(float64(evict1 - evict0))
	ops := float64(len(l.Ops))
	got["proc.alloc_mb_per_op"] = single(ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), ops))
	got["proc.mallocs_per_op"] = single(ratio(float64(ms1.Mallocs-ms0.Mallocs), ops))
	got["proc.gc_pause_ms"] = single(float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6)

	budget := cfg.Scale.RowBudget
	h := ts.Srv.Handler() // built once, as startServer does: Handler() registers every route anew
	handlerHit := handlerHitRow(h, hot, budget)
	got["serve.handler_hit.us"] = handlerHit
	got["serve.net_share"] = single(ratio(median(hitMS)-handlerHit.Value/1e3, median(hitMS)))
	handlerMiss, overhead := handlerMissRow(r, h, cfg)
	got["serve.handler_miss.ms"] = handlerMiss
	got["serve.miss_overhead.ms"] = overhead
	if reqs, err := decodeRequests(hot); err != nil {
		r.fail("hot request: %v", err)
	} else {
		got["serve.key.us"] = keyRow(reqs, budget)
		got["cache.get.ns"], got["cache.add.ns"] = cacheRows(ts, reqs, hot[0].Report, cfg, budget)
	}
	hop, lookup, err := shardRows(cfg, cs[0], hot, budget)
	if err != nil {
		r.fail("shard row: %v", err)
	}
	got["shard.hop.ms"], got["shard.ring_lookup.ns"] = hop, lookup

	got["proc.cpu_s"] = single(cpuSeconds())
	got["proc.peak_rss_mb"] = single(peakRSSMB())
	printLayerTable(l.Spans)
	if path, err := flushChrome(w.Name, l.Spans); err != nil {
		r.fail("trace file: %v", err)
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
}

// timeBatches times fn in batches of `batch` calls until the budget is
// spent and returns the per-call time of each batch in nanoseconds.
func timeBatches(budget time.Duration, batch int, fn func(i int)) sample {
	var ns sample
	i := 0
	for start := time.Now(); time.Since(start) < budget || len(ns) < 3; {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return ns
}

// serveDirect calls the server's handler on a recorder: the serve path
// without sockets.
func serveDirect(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	return rec
}

func handlerHitRow(h http.Handler, hot []*analyzeRequest, budget time.Duration) Value {
	ns := timeBatches(budget, 32, func(i int) { serveDirect(h, hot[i%len(hot)].Body) })
	return ns.scaled(1e-3)
}

// handlerMissRow sends never-seen sequences through the handler and
// runs the same sequences through repro.Analyze directly; the paired
// difference is what serving adds to a miss.
func handlerMissRow(r *Run, h http.Handler, cfg runConfig) (handlerMS, overheadMS Value) {
	const n = 8
	var viaHandler, extra sample
	for k := 0; k < n; k++ {
		req := newRequest(cfg.Scale, cfg.Seed, 2<<40|uint64(k), false)
		t0 := time.Now()
		rec := serveDirect(h, req.Body)
		handler := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.Attempted++
		if rec.Code != http.StatusOK {
			r.fail("handler miss %d: status %d", k, rec.Code)
			continue
		}
		t0 = time.Now()
		if _, err := repro.Analyze("serve", req.Seq.String(), repro.Options{NumTops: cfg.Scale.HotTops}); err != nil {
			r.fail("direct analysis %d: %v", k, err)
			continue
		}
		direct := float64(time.Since(t0).Nanoseconds()) / 1e6
		viaHandler = append(viaHandler, handler)
		extra = append(extra, handler-direct)
	}
	return viaHandler.value(),
		Value{Value: median(extra), N: len(extra)}
}

// decodeRequests decodes the hot bodies as the handler would.
func decodeRequests(hot []*analyzeRequest) ([]serve.Request, error) {
	reqs := make([]serve.Request, len(hot))
	for i, h := range hot {
		if err := json.Unmarshal(h.Body, &reqs[i]); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// keyRow times Canonicalise + CacheKey on a decoded request.
func keyRow(reqs []serve.Request, budget time.Duration) Value {
	ns := timeBatches(budget, 64, func(i int) {
		req := reqs[i%len(reqs)]
		if err := req.Canonicalise(0); err == nil {
			serve.CacheKey(&req)
		}
	})
	return ns.scaled(1e-3)
}

// cacheRows times Cache.Get of a resident key on the server's own cache
// and Cache.Add with eviction on a cache of the mixed workload's size.
func cacheRows(ts *testServer, reqs []serve.Request, val []byte, cfg runConfig, budget time.Duration) (get, add Value) {
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		if req.Canonicalise(0) != nil {
			return Value{}, Value{}
		}
		keys[i] = serve.CacheKey(&req)
	}
	c := ts.Srv.Cache()
	getNS := timeBatches(budget, 256, func(i int) { c.Get(keys[i%len(keys)]) })
	scratch := cache.New(cfg.Scale.MixedCache)
	addNS := timeBatches(budget, 256, func(i int) { scratch.Add(strconv.Itoa(i), val) })
	return getNS.value(),
		addNS.value()
}

// shardRows puts a shard.Router over two fresh in-process shards and
// reports what the hop costs a cache hit (median through the router
// minus median straight at a shard, same client, same bodies) and the
// cost of one ring lookup. Hot-key fan-out is off: it would answer the
// repeated keys from a second shard's cold cache.
func shardRows(cfg runConfig, c *client, hot []*analyzeRequest, budget time.Duration) (hop, lookup Value, err error) {
	var shards []*testServer
	var urls []string
	defer func() {
		for _, s := range shards {
			if e := s.stop(); e != nil && err == nil {
				err = e
			}
		}
	}()
	for i := 0; i < 2; i++ {
		s, err := startServer(serve.Config{Workers: clients()})
		if err != nil {
			return Value{}, Value{}, err
		}
		shards = append(shards, s)
		urls = append(urls, s.URL)
	}
	rt := shard.New(shard.Config{Shards: urls, HotKeyThreshold: -1})
	rt.Start()
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Value{}, Value{}, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	defer hs.Close()

	bodies := hot
	if len(bodies) > 16 {
		bodies = bodies[:16]
	}
	via := "http://" + ln.Addr().String() + "/v1/analyze"
	measure := func(url string) (sample, error) {
		for _, b := range bodies { // first pass computes, the timed ones hit
			if status, body, err := c.postTo(url, b.Body); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("POST %s: status %d err %v body %.80q", url, status, err, body)
			}
		}
		var ms sample
		for start, i := time.Now(), 0; time.Since(start) < 2*budget || len(ms) < 16; i++ {
			t0 := time.Now()
			status, body, err := c.postTo(url, bodies[i%len(bodies)].Body)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("POST %s: status %d err %v", url, status, err)
			}
			if outcome, _, err := splitEnvelope(body); err != nil || outcome != "hit" {
				return nil, fmt.Errorf("POST %s: outcome %q err %v, want a hit", url, outcome, err)
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return ms, nil
	}
	directMS, err := measure(shards[0].URL + "/v1/analyze")
	if err != nil {
		return Value{}, Value{}, err
	}
	viaMS, err := measure(via)
	if err != nil {
		return Value{}, Value{}, err
	}
	hop = Value{Value: median(viaMS) - median(directMS), N: len(viaMS)}

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	ns := timeBatches(budget/4, 256, func(i int) { rt.Ring().Lookup(keys[i%len(keys)]) })
	lookup = ns.value()
	return hop, lookup, nil
}
