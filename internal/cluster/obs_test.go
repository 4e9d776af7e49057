package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// TestClusterTelemetryEndToEnd is the observability smoke test: a
// master and two workers run over the real TCP transport with one
// shared registry and a live debug HTTP listener, exactly like the
// repromaster/reproworker binaries. The /metrics endpoint is scraped
// continuously while the run is in progress, and every scrape — mid-run
// or final — must reconcile: per-rank dispatch counters sum to at least
// the dispatch total (the master bumps the rank counter first), and at
// completion the totals balance exactly against the engine counters.
func TestClusterTelemetryEndToEnd(t *testing.T) {
	q := seq.SyntheticTitin(400, 2)
	want, err := topalign.Find(q.Codes, topCfg(10))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	dbg, err := obs.StartDebug("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	addr := freeAddr(t)
	masterCh := make(chan mpi.Comm, 1)
	listenErr := make(chan error, 1)
	go func() {
		m, err := mpi.ListenTCP(addr, 3, 5*time.Second)
		if err != nil {
			listenErr <- err
			return
		}
		masterCh <- m
	}()
	time.Sleep(20 * time.Millisecond)

	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			w, err := mpi.DialTCP(addr, 5*time.Second)
			if err != nil {
				t.Errorf("worker dial: %v", err)
				return
			}
			defer w.Close()
			err = RunSlaveOpts(w, SlaveOptions{Threads: 2, Metrics: reg})
			if err != nil && !errors.Is(err, ErrMasterDown) {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	var master mpi.Comm
	select {
	case master = <-masterCh:
	case err := <-listenErr:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("master did not start")
	}

	cfg := Config{
		Top: topalign.Config{
			Params:     proteinParams,
			NumTops:    10,
			GroupLanes: 1, // one alignment per dispatch, as the balance checks below assume
			Counters:   &stats.Counters{},
		},
		Metrics: reg,
	}
	type runOut struct {
		res *topalign.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := RunMaster(master, q.Codes, cfg)
		done <- runOut{res, err}
	}()

	// Scrape /metrics over HTTP until the run completes; count how many
	// scrapes catch the run mid-flight. The master bumps a dispatch's rank
	// counter before the total, and a snapshot reads the counters one by
	// one in no fixed order, so the invariant "every counted dispatch is
	// attributed to a rank" is checked across scrapes: the total of one
	// against the rank sum of the next.
	scrapeURL := fmt.Sprintf("http://%s/metrics", dbg.Addr)
	midRun := 0
	var out runOut
	var prevTotal int64
scrape:
	for {
		select {
		case out = <-done:
			break scrape
		default:
		}
		snap := scrapeMetrics(t, scrapeURL)
		total := snap.Counters["cluster/dispatch/total"]
		if rankSum := sumRankCounters(snap, "cluster/dispatch/rank"); rankSum < prevTotal {
			t.Fatalf("mid-run scrape: rank dispatch sum %d < earlier total %d", rankSum, prevTotal)
		}
		prevTotal = total
		if total > 0 {
			midRun++
		}
		time.Sleep(time.Millisecond)
	}
	master.Close()
	workers.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertSameTops(t, out.res.Tops, want.Tops)
	if midRun == 0 {
		t.Error("no scrape observed a live run (dispatch total never nonzero before completion)")
	}

	// Quiescent: everything must balance exactly.
	snap := scrapeMetrics(t, scrapeURL)
	total := snap.Counters["cluster/dispatch/total"]
	if total == 0 {
		t.Fatal("final dispatch total is zero")
	}
	if rankSum := sumRankCounters(snap, "cluster/dispatch/rank"); rankSum != total {
		t.Errorf("final rank dispatch sum %d != total %d", rankSum, total)
	}
	for _, rank := range []int{1, 2} {
		if n := snap.Counters[fmt.Sprintf("cluster/dispatch/rank%d", rank)]; n == 0 {
			t.Errorf("rank %d dispatched no tasks", rank)
		}
	}
	// Strict scalar run: every dispatch produced exactly one
	// result, each accounted as one engine alignment on the master, and
	// the registry-bound engine counters must agree with the final
	// stats.Snapshot returned in the result.
	if got := snap.Counters["engine/alignments"]; got != total {
		t.Errorf("engine/alignments %d != dispatch total %d", got, total)
	}
	if got := snap.Counters["engine/alignments"]; got != out.res.Stats.Alignments {
		t.Errorf("registry alignments %d != result stats %d", got, out.res.Stats.Alignments)
	}
	if got := snap.Counters["engine/tracebacks"]; got != int64(len(out.res.Tops)) {
		t.Errorf("tracebacks %d != %d tops", got, len(out.res.Tops))
	}
	if rows := snap.Counters["cluster/rows_served"]; rows == 0 {
		t.Error("no original rows served despite realignments")
	}
	if jobs := sumRankCounters(snap, "cluster/jobs_done/rank"); jobs != total {
		t.Errorf("slave jobs_done sum %d != dispatch total %d", jobs, total)
	}

	if w, ok := snap.Counters["engine/spec_waste"]; !ok || w != 0 {
		t.Errorf("strict run: engine/spec_waste = %d (present %v), want 0", w, ok)
	}
}

func scrapeMetrics(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("scrape decode: %v", err)
	}
	return snap
}

func sumRankCounters(snap obs.Snapshot, prefix string) int64 {
	var sum int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}
