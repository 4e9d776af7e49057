// Command reproload is a closed-loop load generator for reproserve: N
// concurrent clients hammer POST /v1/analyze over a pool of distinct
// sequences for a fixed duration, honouring 429 Retry-After
// backpressure, and the run is summarised on stderr and as one flat
// JSON object (requests, errors, shed, divergences, p50/p99, hit rate).
// It generates load and checks answers; performance numbers of record
// come from the ledger (bench/), not from here.
//
// Every response is differentially verified against a locally computed
// sequential analysis of the same sequence, so a run also asserts the
// serving layer returns bit-identical results to reprocli.
//
//	reproload -self -clients 64 -duration 10s -out load.json
//	reproload -addr localhost:8080 -clients 32 -seqs 4 -len 600
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/seq"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "", "reproserve address (host:port); empty requires -self")
		self     = flag.Bool("self", false, "start an in-process server on an ephemeral port")
		clients  = flag.Int("clients", 64, "concurrent closed-loop clients")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		seqs     = flag.Int("seqs", 8, "distinct sequences in the request mix")
		length   = flag.Int("len", 500, "residues per synthetic sequence")
		tops     = flag.Int("tops", 10, "top alignments per request")
		backend  = flag.String("backend", "sequential", "backend: sequential, parallel, cluster")
		seed     = flag.Uint64("seed", 1, "sequence generator seed")
		verify   = flag.Bool("verify", true, "differentially verify every response against a local run")
		workers  = flag.Int("workers", 0, "(with -self) server worker pool size")
		queue    = flag.Int("queue", 0, "(with -self) server queue depth")
		longLen  = flag.Int("long-len", 0, "long-input phase: analyse one synthetic sequence of this length with the prefilter preset end-to-end before the load phase (0 disables)")
		longPre  = flag.String("long-preset", "fast", "prefilter preset for the long-input phase: fast, balanced, sensitive")
		outP     = flag.String("out", "-", "output JSON path (- for stdout)")
	)
	flag.Parse()

	if *self {
		a, shutdown, err := startSelf(*workers, *queue)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		*addr = a
	}
	if *addr == "" {
		fatal(fmt.Errorf("need -addr or -self"))
	}

	// The request mix: seqs distinct synthetic titin-like proteins, so
	// the cache sees real repetition without degenerating to one key.
	pool := make([]*seq.Sequence, *seqs)
	for i := range pool {
		pool[i] = seq.SyntheticTitin(*length, *seed+uint64(i))
	}
	// Ground truth for differential verification: the strict
	// sequential engine, exactly what reprocli runs.
	var truth []*repro.Report
	if *verify {
		truth = make([]*repro.Report, *seqs)
		for i, q := range pool {
			rep, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: *tops})
			if err != nil {
				fatal(fmt.Errorf("local truth run: %w", err))
			}
			truth[i] = rep
		}
	}

	tr := &http.Transport{MaxIdleConns: *clients * 2, MaxIdleConnsPerHost: *clients * 2}
	client := &http.Client{Transport: tr}
	base := "http://" + *addr

	// Long-input phase: one chromosome-scale sequence through the
	// seed-filter-extend preset, end to end over the API — asserting the
	// preset parameter reaches the engine, the response matches a local
	// prefilter run bit for bit, and a repeat request hits the cache
	// (the preset knobs are part of the content-addressed key).
	var longDoc *longResult
	if *longLen > 0 {
		longDoc = runLongPhase(client, base, *longLen, *longPre, *tops, *seed, *verify)
	}

	var (
		wg          sync.WaitGroup
		reqCount    atomic.Int64
		shed429     atomic.Int64
		errCount    atomic.Int64
		divergences atomic.Int64
		hitCount    atomic.Int64
	)

	// Cold phase: one uncontended request per distinct sequence, verified
	// in full. It warms the cache so the load phase exercises the hit
	// path.
	for i, q := range pool {
		body, _ := json.Marshal(serve.Request{
			ID: q.ID, Sequence: q.String(),
			Params: serve.Params{Tops: *tops}, Backend: *backend,
			TimeoutMS: int((5 * time.Minute).Milliseconds()),
		})
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			fatal(fmt.Errorf("cold request %d: %w", i, err))
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rerr != nil {
			fatal(fmt.Errorf("cold request %d: status %d: %.200s", i, resp.StatusCode, raw))
		}
		var sr serve.Response
		if err := json.Unmarshal(raw, &sr); err != nil {
			fatal(fmt.Errorf("cold request %d: %w", i, err))
		}
		if *verify {
			rep, err := sr.DecodeReport()
			if err != nil || !sameAnalysis(truth[i], rep) {
				fatal(fmt.Errorf("cold response for sequence %d diverges from the local sequential run", i))
			}
		}
		fmt.Fprintf(os.Stderr, "reproload: warm %d/%d (%s, %.0fms)\n",
			i+1, len(pool), sr.Cache, float64(time.Since(t0).Microseconds())/1e3)
	}

	// Precompute one request body per sequence: the client hot loop
	// competes with the server for the same CPUs, so per-iteration
	// marshalling would distort the measured hit latency.
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		bodies[i], _ = json.Marshal(serve.Request{
			ID: q.ID, Sequence: q.String(),
			Params: serve.Params{Tops: *tops}, Backend: *backend,
		})
	}

	perClient := make([][]float64, *clients) // latencies in ms
	stop := time.Now().Add(*duration)

	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				idx := (c + i) % len(pool)
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(bodies[idx]))
				if err != nil {
					errCount.Add(1)
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					shed429.Add(1)
					time.Sleep(retryAfter(resp))
					continue
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				elapsed := time.Since(t0)
				if resp.StatusCode != http.StatusOK || rerr != nil {
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "reproload: status %d: %.200s\n", resp.StatusCode, raw)
					continue
				}
				// Decode the envelope only; the report payload is
				// unmarshalled just for verified samples.
				var sr struct {
					Cache  string          `json:"cache"`
					Report json.RawMessage `json:"report"`
				}
				if err := json.Unmarshal(raw, &sr); err != nil {
					errCount.Add(1)
					continue
				}
				reqCount.Add(1)
				if sr.Cache == "hit" {
					hitCount.Add(1)
				}
				perClient[c] = append(perClient[c], float64(elapsed.Microseconds())/1e3)
				// Verify every non-hit plus a sample of hits: full
				// verification of every response would burn client CPU
				// the server needs (this is a single-machine bench).
				if *verify && (sr.Cache != "hit" || i%16 == 0) {
					var rep repro.Report
					if json.Unmarshal(sr.Report, &rep) != nil || !sameAnalysis(truth[idx], &rep) {
						divergences.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	var all []float64
	for _, ms := range perClient {
		all = append(all, ms...)
	}
	n := reqCount.Load()
	doc := result{
		Requests:    n,
		Errors:      errCount.Load(),
		Shed:        shed429.Load(),
		Divergences: divergences.Load(),
		LongInput:   longDoc,
	}
	doc.P50MS, doc.P99MS = summarise(all)
	if n > 0 {
		doc.HitRate = float64(hitCount.Load()) / float64(n)
	}

	fmt.Fprintf(os.Stderr,
		"reproload: %d reqs (%.0f rps), %d errors, %d shed, p50 %.2fms p99 %.2fms, hit rate %.2f, divergences %d\n",
		n, float64(n)/duration.Seconds(), doc.Errors, doc.Shed,
		doc.P50MS, doc.P99MS, doc.HitRate, doc.Divergences)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *outP == "-" {
		os.Stdout.Write(enc) //nolint:errcheck
	} else if err := atomicfile.WriteFile(*outP, enc, 0o644); err != nil {
		fatal(err)
	}
	if doc.Divergences > 0 {
		fatal(fmt.Errorf("%d responses diverged from the local sequential run", doc.Divergences))
	}
	if doc.Errors > 0 {
		fatal(fmt.Errorf("%d requests failed", doc.Errors))
	}
}

// result is the one flat object written to -out.
type result struct {
	Requests    int64       `json:"requests"`
	Errors      int64       `json:"errors"`
	Shed        int64       `json:"shed"`
	Divergences int64       `json:"divergences"`
	P50MS       float64     `json:"p50_ms"`
	P99MS       float64     `json:"p99_ms"`
	HitRate     float64     `json:"hit_rate"`
	LongInput   *longResult `json:"long_input,omitempty"`
}

// summarise returns the nearest-rank p50 and p99 of ms (zeros when
// empty). It sorts ms in place.
func summarise(ms []float64) (p50, p99 float64) {
	if len(ms) == 0 {
		return 0, 0
	}
	sort.Float64s(ms)
	pick := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		return ms[i]
	}
	return pick(0.50), pick(0.99)
}

// sameAnalysis compares the analysis content of two reports — tops and
// families, not engine stats (those legitimately differ across
// backends and cache hits).
func sameAnalysis(want, got *repro.Report) bool {
	if got == nil {
		return false
	}
	return want.SeqLen == got.SeqLen &&
		reflect.DeepEqual(want.Tops, got.Tops) &&
		reflect.DeepEqual(want.Families, got.Families)
}

func retryAfter(resp *http.Response) time.Duration {
	d := 100 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	// A closed-loop bench run is short; cap the backoff so shed
	// clients rejoin within the measurement window.
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// longResult summarises the long-input phase.
type longResult struct {
	SeqLen      int     `json:"seq_len"`
	Preset      string  `json:"preset"`
	ColdMS      float64 `json:"cold_ms"`
	RepeatCache string  `json:"repeat_cache"`
	Tops        int     `json:"tops"`
	WindowCells int64   `json:"window_cells"`
	WindowShare float64 `json:"window_fraction"`
	Verified    bool    `json:"verified"`
}

// runLongPhase submits one long synthetic sequence with the prefilter
// preset, verifies the response against a local run with the same
// preset, and asserts a repeat request is served from the cache.
func runLongPhase(client *http.Client, base string, length int, preset string, tops int, seed uint64, verify bool) *longResult {
	q := seq.SyntheticTitin(length, seed+1000)
	body, _ := json.Marshal(serve.Request{
		ID: q.ID, Sequence: q.String(),
		Params:    serve.Params{Tops: tops, Preset: preset},
		TimeoutMS: int((5 * time.Minute).Milliseconds()),
	})
	post := func(label string) (*serve.Response, float64) {
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			fatal(fmt.Errorf("long-input %s: %w", label, err))
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rerr != nil {
			fatal(fmt.Errorf("long-input %s: status %d: %.200s", label, resp.StatusCode, raw))
		}
		var sr serve.Response
		if err := json.Unmarshal(raw, &sr); err != nil {
			fatal(fmt.Errorf("long-input %s: %w", label, err))
		}
		return &sr, float64(time.Since(t0).Microseconds()) / 1e3
	}
	cold, coldMS := post("cold")
	rep, err := cold.DecodeReport()
	if err != nil {
		fatal(fmt.Errorf("long-input report: %w", err))
	}
	if rep.Prefilter == nil || rep.Prefilter.Preset != preset {
		fatal(fmt.Errorf("long-input response carries no prefilter telemetry for preset %q", preset))
	}
	res := &longResult{
		SeqLen: q.Len(), Preset: preset, ColdMS: coldMS,
		Tops: len(rep.Tops), WindowCells: rep.Prefilter.WindowCells,
	}
	if rep.Prefilter.SequenceCells > 0 {
		res.WindowShare = float64(rep.Prefilter.WindowCells) / float64(rep.Prefilter.SequenceCells)
	}
	if verify {
		truth, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: tops, Preset: preset})
		if err != nil {
			fatal(fmt.Errorf("long-input local truth run: %w", err))
		}
		if !sameAnalysis(truth, rep) {
			fatal(fmt.Errorf("long-input response diverges from the local %s-preset run", preset))
		}
		res.Verified = true
	}
	repeat, _ := post("repeat")
	res.RepeatCache = repeat.Cache
	if repeat.Cache != "hit" {
		fatal(fmt.Errorf("long-input repeat request was %q, want cache hit", repeat.Cache))
	}
	fmt.Fprintf(os.Stderr, "reproload: long-input n=%d preset=%s cold %.0fms, %.2f%% of pair space, repeat %s\n",
		q.Len(), preset, coldMS, 100*res.WindowShare, repeat.Cache)
	return res
}

// startSelf runs an in-process reproserve on an ephemeral port.
func startSelf(workers, queue int) (addr string, shutdown func(), err error) {
	srv := serve.New(serve.Config{Workers: workers, QueueDepth: queue})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck
		srv.Drain(ctx)        //nolint:errcheck
	}
	return ln.Addr().String(), shutdown, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproload:", err)
	os.Exit(1)
}
