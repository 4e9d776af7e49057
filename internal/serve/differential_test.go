package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/seq"
)

// TestCacheDifferential is the cache correctness contract: for every
// seed and backend, the served result — fresh, cached, and
// cross-backend cached — must be bit-identical (tops, scores, pairs,
// families) to a direct engine run of the same input. Strict mode
// makes sequential and parallel backends bit-identical, which is what
// licenses one cache entry to serve both.
func TestCacheDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine 4x2 times")
	}
	const (
		seqLen = 180
		tops   = 6
	)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 4, Metrics: reg})

	for _, seedv := range []uint64{1, 2, 3, 4} {
		q := seq.SyntheticTitin(seqLen, seedv)

		// Ground truth: the library API, no serving layer involved.
		want, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: tops})
		if err != nil {
			t.Fatal(err)
		}

		for _, backend := range []string{BackendSequential, BackendParallel} {
			t.Run(fmt.Sprintf("seed%d-%s", seedv, backend), func(t *testing.T) {
				req := Request{
					ID: q.ID, Sequence: q.String(),
					Params: Params{Tops: tops}, Backend: backend,
				}
				// Twice: once possibly fresh, once necessarily cached.
				var reports [2]*repro.Report
				var outcomes [2]string
				for i := range reports {
					resp, raw := post(t, ts.URL, req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d: %s", resp.StatusCode, raw)
					}
					sr := decode(t, raw)
					rep, err := sr.DecodeReport()
					if err != nil {
						t.Fatalf("report payload: %v", err)
					}
					reports[i], outcomes[i] = rep, sr.Cache
				}
				if outcomes[1] != "hit" {
					t.Errorf("second request outcome = %q, want hit", outcomes[1])
				}
				for i, got := range reports {
					if got.SeqLen != want.SeqLen {
						t.Fatalf("run %d: seqlen %d != %d", i, got.SeqLen, want.SeqLen)
					}
					if !reflect.DeepEqual(got.Tops, want.Tops) {
						t.Errorf("run %d (%s): tops diverge from direct engine run\n got %+v\nwant %+v",
							i, outcomes[i], got.Tops, want.Tops)
					}
					if !reflect.DeepEqual(got.Families, want.Families) {
						t.Errorf("run %d (%s): families diverge", i, outcomes[i])
					}
				}
			})
		}
		// The parallel request after the sequential one must have been
		// a cache hit: the key deliberately ignores the backend.
	}
	snap := reg.Snapshot()
	// 4 seeds, 2 backends, 2 requests each = 16 requests, but only 4
	// engine runs: one miss per seed, everything else hits.
	if snap.Counters["cache/misses"] != 4 {
		t.Errorf("cache misses = %d, want 4 (one per seed)", snap.Counters["cache/misses"])
	}
	if snap.Counters["cache/hits"] != 12 {
		t.Errorf("cache hits = %d, want 12", snap.Counters["cache/hits"])
	}
}

// TestSingleflightSharesOneRun fires identical concurrent requests at
// an in-flight computation and asserts exactly one engine run happened.
// The test itself leads the flight and stays inside the run until a
// worker has taken every follower off the queue, so the followers find
// the flight open however fast the engine is.
func TestSingleflightSharesOneRun(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 64, Metrics: reg})

	q := seq.SyntheticTitin(160, 9)
	req := Request{Sequence: q.String(), Params: Params{Tops: 5}}
	lead := req
	if err := lead.canonicalise(0); err != nil {
		t.Fatal(err)
	}
	entered, release, led := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := srv.Cache().GetOrCompute(CacheKey(&lead), func() (any, error) {
			close(entered)
			<-release
			rep, err := srv.runEngine(&lead, nil, trace.SpanID{})
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		})
		led <- err
	}()
	<-entered

	const n = 8
	var wg sync.WaitGroup
	reports := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var sr Response
			if json.NewDecoder(resp.Body).Decode(&sr) == nil && len(sr.Report) > 0 {
				reports[i] = string(sr.Report)
			}
		}(i)
	}
	// A worker observes the admission wait as it takes a request off the
	// queue, straight before it joins the flight.
	for reg.Snapshot().Histograms["serve/admission_wait_ns"].Count < n {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-led; err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["cache/misses"] != 1 {
		t.Errorf("cache misses = %d, want 1 (singleflight should share the run)",
			snap.Counters["cache/misses"])
	}
	if runs := snap.Histograms["serve/engine_ns"].Count; runs != 1 {
		t.Errorf("engine ran %d times, want 1", runs)
	}
	// Every follower reached the cache while the leader was still in the
	// run or, at the latest, while it ran the engine: it waited on the
	// flight (cache/shared). One that stalled past the whole run reads
	// the stored entry instead (cache/hits).
	shared, hits := snap.Counters["cache/shared"], snap.Counters["cache/hits"]
	if shared == 0 || shared+hits != n {
		t.Errorf("cache shared %d + hits %d, want %d in total and shared > 0", shared, hits, n)
	}
	for i := 1; i < n; i++ {
		if reports[i] == "" {
			t.Fatalf("request %d got no report", i)
		}
		if reports[i] != reports[0] {
			t.Errorf("request %d result differs from request 0", i)
		}
	}
}
