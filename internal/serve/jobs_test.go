package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func postJob(t *testing.T, url string, req Request) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("bad job response %s: %v", buf.Bytes(), err)
		}
	}
	return resp, st
}

func getJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, url, id)
		if st.State == string(jobstore.Done) || st.State == string(jobstore.Failed) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestJobSubmitPollDoneMatchesSync(t *testing.T) {
	store := openStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{
		Workers: 2, Metrics: obs.NewRegistry(), Jobs: store,
		Traces: trace.NewCollector(16, 256),
	})

	req := Request{Sequence: "ATGCATGCATGCATGCTTTT", Params: Params{Matrix: "paper-dna", Tops: 3}}
	resp, st := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.JobID == "" || st.State != string(jobstore.Pending) {
		t.Fatalf("submit response = %+v", st)
	}
	if st.TraceID == "" {
		t.Error("submit response missing trace id")
	}

	done := waitJob(t, ts.URL, st.JobID)
	if done.State != string(jobstore.Done) {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	if len(done.Report) == 0 || done.Cache != "hit" {
		t.Fatalf("done job report missing: cache=%q len=%d", done.Cache, len(done.Report))
	}

	// The async result must be identical to a synchronous analyze of
	// the same request: same canonical key, same cached entry. Compare
	// compacted (writeJSON re-indents the embedded report).
	_, raw := post(t, ts.URL, req)
	sync := decode(t, raw)
	var a, b bytes.Buffer
	if err := json.Compact(&a, sync.Report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, done.Report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("async job report differs from sync analyze report")
	}
	if sync.Cache != "hit" {
		t.Errorf("sync analyze after job = %q, want hit via shared cache", sync.Cache)
	}

	// The listing must include the job.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].JobID != st.JobID {
		t.Errorf("job list = %+v", list.Jobs)
	}
}

func TestJobDedupWhileActive(t *testing.T) {
	store := openStore(t, t.TempDir())
	gate := make(chan struct{})
	s := New(Config{Workers: 1, JobWorkers: 1, Metrics: obs.NewRegistry(), Jobs: store})
	s.failBackend = func(string) error { <-gate; return nil }
	s.Start()
	ts := newHTTPServer(t, s)

	req := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}}
	_, first := postJob(t, ts, req)
	_, second := postJob(t, ts, req)
	if !second.Deduped {
		t.Fatalf("second submission not deduped: %+v", second)
	}
	if second.JobID != first.JobID {
		t.Errorf("deduped job id = %s, want %s", second.JobID, first.JobID)
	}
	close(gate)
	if st := waitJob(t, ts, first.JobID); st.State != string(jobstore.Done) {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	// The job is terminal now, so an identical submission is a fresh
	// job — which completes instantly off the shared cache.
	_, third := postJob(t, ts, req)
	if third.Deduped {
		t.Error("terminal job should not absorb new submissions")
	}
}

func TestJobRetryChainDegrades(t *testing.T) {
	store := openStore(t, t.TempDir())
	col := trace.NewCollector(16, 256)
	s := New(Config{
		Workers: 1, JobWorkers: 1, Metrics: obs.NewRegistry(), Jobs: store,
		Traces: col, JobRetryBase: time.Millisecond,
	})
	s.failBackend = func(backend string) error {
		if backend != BackendSequential {
			return errors.New(backend + " backend down")
		}
		return nil
	}
	s.Start()
	ts := newHTTPServer(t, s)

	req := Request{Sequence: "ATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}, Backend: BackendCluster}
	_, st := postJob(t, ts, req)
	done := waitJob(t, ts, st.JobID)
	if done.State != string(jobstore.Done) {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	if done.Backend != BackendSequential {
		t.Errorf("final backend = %q, want sequential after degradation", done.Backend)
	}
	if done.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (cluster, parallel, sequential)", done.Attempts)
	}
	if got := s.jobsRetries.Load(); got != 2 {
		t.Errorf("jobs_retries = %d, want 2", got)
	}

	// Every attempt and backoff must be visible in the job's trace.
	tid, _ := trace.ParseTraceID(done.TraceID)
	spans, _, ok := col.Get(tid)
	if !ok {
		t.Fatal("job trace missing")
	}
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	for _, want := range []string{"job", "job.attempt.cluster", "job.attempt.parallel", "job.attempt.sequential", "job.backoff"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

func TestJobAllBackendsFail(t *testing.T) {
	store := openStore(t, t.TempDir())
	s := New(Config{
		Workers: 1, JobWorkers: 1, Metrics: obs.NewRegistry(), Jobs: store,
		JobRetryBase: time.Millisecond,
	})
	s.failBackend = func(backend string) error { return errors.New("injected: " + backend) }
	s.Start()
	ts := newHTTPServer(t, s)

	_, st := postJob(t, ts, Request{Sequence: "ATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 1}, Backend: BackendParallel})
	done := waitJob(t, ts, st.JobID)
	if done.State != string(jobstore.Failed) {
		t.Fatalf("job state = %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "parallel->sequential") || !strings.Contains(done.Error, "injected") {
		t.Errorf("error = %q, want chain + cause", done.Error)
	}
}

func TestJobEventsSSE(t *testing.T) {
	store := openStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{
		Workers: 1, Metrics: obs.NewRegistry(), Jobs: store,
		Traces: trace.NewCollector(16, 256),
	})

	_, st := postJob(t, ts.URL, Request{Sequence: "ATGCATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	events := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	var lastEvent string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			lastEvent = strings.TrimPrefix(line, "event: ")
			events[lastEvent]++
		}
		if lastEvent == "done" && line == "" {
			break
		}
	}
	if events["status"] == 0 {
		t.Error("no status events streamed")
	}
	if events["span"] == 0 {
		t.Error("no span events streamed")
	}
	if events["done"] != 1 {
		t.Errorf("done events = %d, want 1", events["done"])
	}

	// Unknown job: 404, not a stream.
	resp2, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events status = %d", resp2.StatusCode)
	}
}

func TestJobRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Sequence: "ATGCATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}}
	if err := req.canonicalise(0); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(&req)

	// "Crashed" incarnation: one job journaled as Running (claimed but
	// never finished), one still Pending. No Close — the reopen below
	// sees exactly what a SIGKILL would leave.
	st1 := openStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := st1.Submit(jobstore.Job{ID: fmt.Sprintf("job-%d", i), Key: CacheKey(&req), Request: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st1.Claim(); !ok {
		t.Fatal("claim failed")
	}
	// A job the previous binary journalled: its stored request spells
	// lanes and the since-removed striped field, and its key is a v1 key.
	old := []byte(`{"id":"serve","sequence":"TTAGGTTAGGTTAGG","matrix":"paper-dna","gap_open":2,"gap_ext":1,` +
		`"tops":2,"min_score":1,"lanes":1,"striped":false,"backend":"sequential"}`)
	if _, err := st1.Submit(jobstore.Job{ID: "job-old", Key: "a-v1-key", Request: old}); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Jobs: st2})

	// Both jobs share one cache key, so recovery runs the engine once
	// and both finish.
	for _, id := range []string{"job-0", "job-1"} {
		if got := waitJob(t, ts.URL, id); got.State != string(jobstore.Done) {
			t.Fatalf("job %s state = %s (%s)", id, got.State, got.Error)
		}
	}
	if got := reg.Counter("serve/jobs_recovered").Load(); got != 1 {
		t.Errorf("jobs_recovered = %d, want 1 (the Running job)", got)
	}
	// The old job decodes leniently, runs, and is re-keyed to where its
	// result was stored, so fetching it serves the report instead of
	// requeueing it for ever.
	if got := waitJob(t, ts.URL, "job-old"); got.State != string(jobstore.Done) {
		t.Fatalf("job-old state = %s (%s)", got.State, got.Error)
	}
	if got := getJob(t, ts.URL, "job-old"); len(got.Report) == 0 || got.Note != "" {
		t.Errorf("job-old: report %d bytes, note %q; want the report served", len(got.Report), got.Note)
	}
}

func TestJobResultLossRequeues(t *testing.T) {
	store := openStore(t, t.TempDir())
	// Capacity-1 memory cache, no disk tier: completing a second
	// analysis evicts the job's result entirely.
	_, ts := newTestServer(t, Config{
		Workers: 1, CacheEntries: 1, Metrics: obs.NewRegistry(), Jobs: store,
	})

	req := Request{Sequence: "ATGCATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 2}}
	_, st := postJob(t, ts.URL, req)
	if got := waitJob(t, ts.URL, st.JobID); got.State != string(jobstore.Done) {
		t.Fatalf("job state = %s", got.State)
	}

	// Evict the result, then ask for it: the job must go back to
	// pending and recompute rather than serve nothing.
	post(t, ts.URL, Request{Sequence: "TTTTAAAATTTTAAAA", Params: Params{Matrix: "paper-dna", Tops: 2}})
	got := getJob(t, ts.URL, st.JobID)
	if got.State != string(jobstore.Pending) && got.State != string(jobstore.Running) && got.State != string(jobstore.Done) {
		t.Fatalf("job state after result loss = %s", got.State)
	}
	if got.State == string(jobstore.Pending) && !strings.Contains(got.Note, "recomputing") {
		t.Errorf("requeue note = %q", got.Note)
	}
	final := waitJob(t, ts.URL, st.JobID)
	if final.State != string(jobstore.Done) || len(final.Report) == 0 {
		t.Fatalf("recomputed job = %+v", final)
	}
}

func TestJobSubmitWhileDraining(t *testing.T) {
	store := openStore(t, t.TempDir())
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: obs.NewRegistry(), Jobs: store})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJob(t, ts.URL, Request{Sequence: "ATGC", Params: Params{Matrix: "paper-dna", Tops: 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining 503 missing Retry-After")
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// newHTTPServer wraps an already-started Server (needed when a test
// must install the failBackend hook between New and Start).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})
	return ts.URL
}
