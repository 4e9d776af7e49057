package main

// Router-scaling benchmark (-router-compare): runs the warm-hit load
// phase against an in-process router fronting fleets of different
// sizes and emits one combined document.
//
// Measuring scale-OUT honestly on one machine needs a capacity model:
// every shard shares the same CPUs, so raw warm throughput would
// measure the box, not the fabric. Each shard therefore runs with a
// token-bucket rate cap (-shard-rate) — a declared per-node capacity,
// exactly what the limiter exists for in production — and the bench
// measures how much aggregate admitted throughput the router extracts
// from N capped shards. Near-linear scaling then means the router
// spreads keys evenly and loses nothing to routing overhead; it does
// NOT claim one box computes 4x faster.
//
// With -kill-shard the largest fleet's run abruptly kills one shard
// mid-load; the router must absorb it (retry + passive eviction) with
// zero client-visible failures.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/internal/shard"
)

type routerBenchConfig struct {
	fleets    []int // e.g. {1, 4}
	shardRate float64
	clients   int
	duration  time.Duration
	seqs      int
	length    int
	tops      int
	seed      uint64
	killShard bool
	outPath   string
}

type routerPhase struct {
	Shards          int       `json:"shards"`
	Requests        int64     `json:"requests"`
	Errors          int64     `json:"errors"`
	Shed429         int64     `json:"shed_429"`
	Throughput      float64   `json:"throughput_rps"`
	CacheHitRate    float64   `json:"cache_hit_rate"`
	Latency         quantiles `json:"latency_ms"`
	ShardsAnswering int       `json:"shards_answering"`
	FlightShared    int64     `json:"flight_shared"`
}

type killResult struct {
	FleetSize         int     `json:"fleet_size"`
	KilledAtS         float64 `json:"killed_at_s"`
	RequestsAfterKill int64   `json:"requests_after_kill"`
	Errors            int64   `json:"errors"`
	RingSizeAfter     int64   `json:"ring_size_after"`
}

type routerOutput struct {
	Bench       string  `json:"bench"`
	Clients     int     `json:"clients"`
	DurationS   float64 `json:"duration_s"`
	DistinctSeq int     `json:"distinct_seqs"`
	SeqLen      int     `json:"seq_len"`
	Tops        int     `json:"tops"`
	ShardRate   float64 `json:"shard_rate_limit_rps"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	// Note records the capacity model so the scaling number cannot be
	// misread as single-box compute scaling.
	Note string `json:"note"`

	Phases      []routerPhase `json:"phases"`
	WarmScaling float64       `json:"warm_scaling_x"`
	Kill        *killResult   `json:"shard_kill,omitempty"`
}

// fleetShard is one in-process reproserve with its own listener, so
// the bench can kill it abruptly mid-load.
type fleetShard struct {
	srv     *serve.Server
	httpSrv *http.Server
	ln      net.Listener
	url     string
}

func startFleetShard(rate float64) (*fleetShard, error) {
	srv := serve.New(serve.Config{
		Workers:   1, // shards share one box; real deployments get one fleet node each
		RateLimit: rate,
		Metrics:   obs.NewRegistry(),
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fs := &fleetShard{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		ln:      ln,
		url:     "http://" + ln.Addr().String(),
	}
	go fs.httpSrv.Serve(ln) //nolint:errcheck
	return fs, nil
}

// kill closes the listener and every open connection — the abrupt
// failure the router's passive detection exists for.
func (fs *fleetShard) kill() { fs.httpSrv.Close() }

func (fs *fleetShard) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fs.httpSrv.Shutdown(ctx) //nolint:errcheck
	fs.srv.Drain(ctx)        //nolint:errcheck
}

func runRouterCompare(cfg routerBenchConfig) {
	pool := make([]*seq.Sequence, cfg.seqs)
	for i := range pool {
		pool[i] = seq.SyntheticTitin(cfg.length, cfg.seed+uint64(i))
	}
	// Ground truth for warmup verification: every fleet size must
	// return the same bytes-identical analysis.
	truth := make([]*repro.Report, cfg.seqs)
	for i, q := range pool {
		rep, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: cfg.tops})
		if err != nil {
			fatal(fmt.Errorf("local truth run: %w", err))
		}
		truth[i] = rep
	}
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		bodies[i], _ = json.Marshal(serve.Request{
			ID: q.ID, Sequence: q.String(), Params: serve.Params{Tops: cfg.tops},
		})
	}

	doc := routerOutput{
		Bench: "router-scaling", Clients: cfg.clients, DurationS: cfg.duration.Seconds(),
		DistinctSeq: cfg.seqs, SeqLen: cfg.length, Tops: cfg.tops, ShardRate: cfg.shardRate,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Note: "shards share one machine and are capped at shard_rate_limit_rps each (declared per-node capacity); offered load is open-loop at 1.5x fleet capacity; warm_scaling_x measures router keyspace spreading over capped shards, not single-box compute scaling",
	}

	largest := cfg.fleets[0]
	for _, n := range cfg.fleets {
		if n > largest {
			largest = n
		}
	}
	for _, n := range cfg.fleets {
		kill := cfg.killShard && n == largest && n > 1
		phase, killRes := runRouterPhase(cfg, n, pool, truth, bodies, kill)
		doc.Phases = append(doc.Phases, phase)
		if killRes != nil {
			doc.Kill = killRes
		}
	}

	// Scaling: largest fleet's throughput over the smallest's.
	lo, hi := doc.Phases[0], doc.Phases[0]
	for _, p := range doc.Phases {
		if p.Shards < lo.Shards {
			lo = p
		}
		if p.Shards > hi.Shards {
			hi = p
		}
	}
	if lo.Throughput > 0 {
		doc.WarmScaling = hi.Throughput / lo.Throughput
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if cfg.outPath == "-" {
		os.Stdout.Write(enc) //nolint:errcheck
	} else if err := atomicfile.WriteFile(cfg.outPath, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "reproload: router scaling %dx shards -> %.2fx warm throughput\n",
		hi.Shards, doc.WarmScaling)

	var totalErrs int64
	for _, p := range doc.Phases {
		totalErrs += p.Errors
	}
	if totalErrs > 0 {
		fatal(fmt.Errorf("%d client-visible failures across router phases", totalErrs))
	}
}

func runRouterPhase(cfg routerBenchConfig, n int, pool []*seq.Sequence, truth []*repro.Report, bodies [][]byte, kill bool) (routerPhase, *killResult) {
	fmt.Fprintf(os.Stderr, "reproload: router phase, %d shard(s), rate cap %.0f rps each\n", n, cfg.shardRate)
	var shards []*fleetShard
	var urls []string
	for i := 0; i < n; i++ {
		fs, err := startFleetShard(cfg.shardRate)
		if err != nil {
			fatal(err)
		}
		shards = append(shards, fs)
		urls = append(urls, fs.url)
	}
	reg := obs.NewRegistry()
	rt := shard.New(shard.Config{Shards: urls, ProbeInterval: 200 * time.Millisecond, Metrics: reg})
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	rtSrv := &http.Server{Handler: rt.Handler()}
	go rtSrv.Serve(ln) //nolint:errcheck
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: cfg.clients * 2, MaxIdleConnsPerHost: cfg.clients * 2,
	}}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rtSrv.Shutdown(ctx) //nolint:errcheck
		rt.Close()
		for _, fs := range shards {
			fs.stop()
		}
	}()

	// Warmup: one verified cold request per sequence through the
	// router. Retry on 429 — the cold engine run may exhaust a small
	// rate cap.
	answering := map[string]bool{}
	for i := range pool {
		for {
			resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				fatal(fmt.Errorf("warmup %d: %w", i, err))
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				fatal(fmt.Errorf("warmup %d: status %d: %.200s", i, resp.StatusCode, raw))
			}
			answering[resp.Header.Get("X-Router-Shard")] = true
			var sr serve.Response
			if err := json.Unmarshal(raw, &sr); err != nil {
				fatal(fmt.Errorf("warmup %d: %w", i, err))
			}
			rep, err := sr.DecodeReport()
			if err != nil || !sameAnalysis(truth[i], rep) {
				detail := fmt.Sprintf("decode err %v", err)
				if rep != nil {
					detail = fmt.Sprintf("cache=%s shard=%s tops %d vs %d, families %d vs %d",
						sr.Cache, resp.Header.Get("X-Router-Shard"),
						len(truth[i].Tops), len(rep.Tops), len(truth[i].Families), len(rep.Families))
				}
				fatal(fmt.Errorf("warmup %d: response via router diverges from the local sequential run (%s)", i, detail))
			}
			break
		}
	}

	// Open-loop load: the fleet's declared capacity is n*shardRate, and
	// each client paces requests so the aggregate offered load is 1.5x
	// that — enough headroom to prove the caps are the bottleneck
	// without a 429-retry storm that would burn the CPU the shards
	// need. (A closed-loop hammer would also let the router's
	// singleflight collapse retry herds of the same key, crediting one
	// admitted upstream call with many client completions and
	// distorting the scaling ratio.)
	offered := 1.5 * float64(n) * cfg.shardRate
	period := time.Duration(float64(cfg.clients) / offered * float64(time.Second))
	var (
		wg         sync.WaitGroup
		reqCount   atomic.Int64
		afterKill  atomic.Int64
		errCount   atomic.Int64
		shed429    atomic.Int64
		hitCount   atomic.Int64
		killedFlag atomic.Bool
		latMu      sync.Mutex
	)
	var lats []float64
	start := time.Now()
	stop := start.Add(cfg.duration)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger client phases so ticks do not thunder together.
			time.Sleep(time.Duration(c) * period / time.Duration(cfg.clients))
			tick := time.NewTicker(period)
			defer tick.Stop()
			var mine []float64
			for i := 0; time.Now().Before(stop); i++ {
				<-tick.C
				idx := (c + i*7) % len(pool)
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(bodies[idx]))
				if err != nil {
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "reproload: router request failed: %v\n", err)
					continue
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					shed429.Add(1) // over declared capacity: expected, not a failure
					continue
				}
				if resp.StatusCode != http.StatusOK || rerr != nil {
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "reproload: router status %d: %.200s\n", resp.StatusCode, raw)
					continue
				}
				var sr struct {
					Cache string `json:"cache"`
				}
				if json.Unmarshal(raw, &sr) == nil && sr.Cache == "hit" {
					hitCount.Add(1)
				}
				reqCount.Add(1)
				if killedFlag.Load() {
					afterKill.Add(1)
				}
				mine = append(mine, float64(time.Since(t0).Microseconds())/1e3)
			}
			latMu.Lock()
			lats = append(lats, mine...)
			latMu.Unlock()
		}(c)
	}

	var killRes *killResult
	if kill {
		killAt := cfg.duration / 2
		time.Sleep(killAt)
		shards[0].kill()
		killedFlag.Store(true)
		fmt.Fprintf(os.Stderr, "reproload: killed shard %s at %.1fs\n", shards[0].url, killAt.Seconds())
		killRes = &killResult{FleetSize: n, KilledAtS: killAt.Seconds()}
	}
	wg.Wait()

	if killRes != nil {
		killRes.RequestsAfterKill = afterKill.Load()
		killRes.Errors = errCount.Load()
		if snap, err := scrapeMetrics(client, base); err == nil {
			killRes.RingSizeAfter = snap.Gauges["router/ring_size"]
		}
	}

	elapsed := time.Since(start).Seconds()
	var hitRate float64
	if reqCount.Load() > 0 {
		hitRate = float64(hitCount.Load()) / float64(reqCount.Load())
	}
	phase := routerPhase{
		Shards:          n,
		Requests:        reqCount.Load(),
		Errors:          errCount.Load(),
		Shed429:         shed429.Load(),
		Throughput:      float64(reqCount.Load()) / elapsed,
		CacheHitRate:    hitRate,
		Latency:         summarise(lats),
		ShardsAnswering: len(answering),
	}
	if snap, err := scrapeMetrics(client, base); err == nil {
		phase.FlightShared = snap.Counters["router/flight_shared"]
	}
	fmt.Fprintf(os.Stderr,
		"reproload: %d shard(s): %d reqs (%.0f rps), %d errors, %d shed, hit rate %.2f\n",
		n, phase.Requests, phase.Throughput, phase.Errors, phase.Shed429, phase.CacheHitRate)
	return phase, killRes
}

// parseFleets parses "-router-compare 1,4" into fleet sizes.
func parseFleets(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		out = append(out, n)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two fleet sizes to compare")
	}
	sort.Ints(out)
	return out, nil
}
