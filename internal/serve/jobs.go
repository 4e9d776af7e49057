package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/jobstore"
	"repro/internal/obs/trace"
)

// This file is the durable async job subsystem: POST /v1/jobs accepts
// an analysis, writes and fsyncs its record in the job store, and
// answers 202 with a job id — from that moment the work survives
// SIGKILL and power loss. A
// dedicated worker pool claims pending jobs, runs them through the
// shared result cache (so jobs, /v1/analyze, and restarts all
// deduplicate through the same content-addressed key), and degrades
// the backend cluster -> parallel -> sequential with jittered backoff
// before reporting failure. Progress streams over SSE, backed by the
// same span collector the tracing layer uses.

// JobStatus is the body of GET /v1/jobs/{id} and of SSE status events.
type JobStatus struct {
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	// Backend is the backend of the most recent attempt; the retry
	// chain may have degraded it below the requested one.
	Backend string `json:"backend,omitempty"`
	Error   string `json:"error,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Deduped marks a submission that joined an existing active job
	// with the same content-addressed key.
	Deduped   bool   `json:"deduped,omitempty"`
	Note      string `json:"note,omitempty"`
	CreatedNS int64  `json:"created_ns,omitempty"`
	UpdatedNS int64  `json:"updated_ns,omitempty"`
	// Cache and Report are set on a Done job: how the result was last
	// obtained and the pre-encoded report JSON.
	Cache  string          `json:"cache,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

func jobStatusOf(j jobstore.Job) JobStatus {
	return JobStatus{
		JobID:    j.ID,
		State:    string(j.State),
		Attempts: j.Attempts,
		Backend:  j.Backend,
		Error:    j.Error,
		TraceID:  j.TraceID,

		CreatedNS: j.CreatedNS,
		UpdatedNS: j.UpdatedNS,
	}
}

// handleJobSubmit is POST /v1/jobs: same body as /v1/analyze, but the
// work is recorded durably and executed asynchronously. 202 is a durability
// promise: once the id is returned, the job is recovered and re-run
// across any number of crashes until it reaches a terminal state.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.canonicalise(s.cfg.MaxSequenceLen); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter(true))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	key := CacheKey(&req)
	// Submission-time dedup: an active job for the same canonicalised
	// analysis absorbs this submission (the content-addressed key is
	// exactly "would produce a bit-identical report").
	if existing, ok := s.jobs.ActiveByKey(key); ok {
		s.jobsDeduped.Inc()
		st := jobStatusOf(existing)
		st.Deduped = true
		writeJSON(w, http.StatusAccepted, st)
		return
	}

	var traceID string
	if s.cfg.Traces != nil {
		traceID = trace.NewTraceID().String()
	}
	canon, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	j, err := s.jobs.Submit(jobstore.Job{
		ID:      trace.NewSpanID().String(),
		Key:     key,
		Request: canon,
		TraceID: traceID,
	})
	if err != nil {
		// The record could not be made durable (e.g. disk full):
		// accepting would break the 202 promise, so refuse loudly.
		writeError(w, http.StatusServiceUnavailable, "job store unavailable: "+err.Error())
		return
	}
	s.jobsSubmitted.Inc()
	s.kickJobs()
	// The 202 renders what Submit recorded, not a re-read of the store:
	// a worker may already have claimed the job.
	writeJSON(w, http.StatusAccepted, jobStatusOf(j))
}

// handleJobGet is GET /v1/jobs/{id}: status, and for Done jobs the
// result itself, re-fetched from the cache tiers. If the result has
// been lost since completion (evicted from memory AND corrupted or
// missing on disk), the job is transparently re-enqueued — corrupt
// bytes are never served, recomputation is.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	st := jobStatusOf(j)
	if j.State == jobstore.Done {
		if v, ok := s.cache.Get(j.Key); ok {
			st.Report = v.([]byte)
			st.Cache = "hit"
		} else {
			j2, err := s.jobs.Update(j.ID, func(x *jobstore.Job) { x.State = jobstore.Pending })
			if err == nil {
				s.kickJobs()
				st = jobStatusOf(j2)
				st.Note = "result no longer durable; recomputing"
			}
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobList is GET /v1/jobs: every known job, oldest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = jobStatusOf(j)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

// handleJobEvents is GET /v1/jobs/{id}/events: a Server-Sent-Events
// stream of the job's progress. Status events fire on every state
// change; span events replay the job's trace from the span collector
// as the engine emits it (queue waits, attempts, engine phases,
// cluster dispatch...), so a client watching a minutes-long
// chromosome-scale job sees it move. The stream ends with a "done"
// event once the job is terminal.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var tid trace.TraceID
	if j.TraceID != "" {
		tid, _ = trace.ParseTraceID(j.TraceID)
	}
	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	lastState, lastAttempts := "", -1
	sentSpans := 0
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		j, ok = s.jobs.Get(j.ID)
		if !ok {
			return
		}
		if string(j.State) != lastState || j.Attempts != lastAttempts {
			lastState, lastAttempts = string(j.State), j.Attempts
			emit("status", jobStatusOf(j))
		}
		if spans, _, ok := s.cfg.Traces.Get(tid); ok {
			for ; sentSpans < len(spans); sentSpans++ {
				sp := spans[sentSpans]
				emit("span", struct {
					Name    string `json:"name"`
					Rank    int32  `json:"rank"`
					StartNS int64  `json:"start_ns"`
					DurNS   int64  `json:"dur_ns"`
					Arg     int64  `json:"arg,omitempty"`
				}{sp.Name, sp.Rank, sp.Start, sp.Dur, sp.Arg})
			}
		}
		if j.State.Terminal() {
			emit("done", jobStatusOf(j))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.jobStop:
			return
		case <-tick.C:
		}
	}
}

// kickJobs wakes a job worker without blocking.
func (s *Server) kickJobs() {
	select {
	case s.jobKick <- struct{}{}:
	default:
	}
}

// recoverJobs is the restart path: every job that was Running when the
// process died goes back to Pending, and pending jobs whose result is
// already durable (computed before the crash, or by a twin request)
// complete immediately through the content-addressed cache — work is
// deduplicated across crashes exactly as it is across requests.
func (s *Server) recoverJobs() {
	if n := s.jobs.RequeueRunning(); n > 0 {
		s.jobsRecovered.Add(int64(n))
	}
	for _, j := range s.jobs.List() {
		if j.State != jobstore.Pending {
			continue
		}
		if _, ok := s.cache.Get(j.Key); ok {
			s.jobs.Update(j.ID, func(x *jobstore.Job) { x.State = jobstore.Done }) //nolint:errcheck
			s.jobsCompleted.Inc()
		}
	}
	s.kickJobs()
}

// jobWorker drains pending jobs. Claims go through the store so a
// claim is atomic across workers; the kick channel gives submissions
// instant pickup and the ticker catches anything left behind (e.g.
// jobs requeued by a result-loss GET).
func (s *Server) jobWorker() {
	defer s.jobWG.Done()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.jobStop:
			return
		case <-s.jobKick:
		case <-tick.C:
		}
		for {
			select {
			case <-s.jobStop:
				return
			default:
			}
			j, ok := s.jobs.Claim()
			if !ok {
				break
			}
			s.runJob(j)
		}
	}
}

// backendChain is the graceful-degradation order: a failed
// cluster-backend attempt falls back to the shared-memory engine,
// then to sequential — strict mode keeps all three bit-identical, so
// degradation changes latency, never the answer.
func backendChain(requested string) []string {
	switch requested {
	case BackendCluster:
		return []string{BackendCluster, BackendParallel, BackendSequential}
	case BackendParallel:
		return []string{BackendParallel, BackendSequential}
	default:
		return []string{BackendSequential}
	}
}

// retryDelay is the jittered exponential backoff before attempt i
// (1-based within the chain): base<<(i-1), uniformly jittered in
// [50%, 150%], so a thundering herd of recovered jobs spreads out.
func (s *Server) retryDelay(i int) time.Duration {
	d := s.cfg.JobRetryBase << (i - 1)
	return d/2 + rand.N(d)
}

// runJob executes one claimed job through the retry chain. Every
// attempt (and the backoff before it) is recorded as a span in the
// job's trace, so reprotrace attributes exactly what retries cost.
func (s *Server) runJob(j jobstore.Job) {
	var req Request
	if err := json.Unmarshal(j.Request, &req); err == nil {
		err = req.canonicalise(s.cfg.MaxSequenceLen)
		if err == nil {
			s.executeJob(j, &req)
			return
		}
		s.failJob(j.ID, fmt.Errorf("replayed request invalid: %w", err))
		return
	}
	s.failJob(j.ID, fmt.Errorf("replayed request unreadable"))
}

func (s *Server) failJob(id string, cause error) {
	s.jobsFailed.Inc()
	s.jobs.Update(id, func(x *jobstore.Job) { //nolint:errcheck
		x.State = jobstore.Failed
		x.Error = cause.Error()
	})
}

func (s *Server) executeJob(j jobstore.Job, req *Request) {
	var rec *trace.Recorder
	if tid, ok := trace.ParseTraceID(j.TraceID); ok {
		rec = s.cfg.Traces.Rec(tid)
	}
	root := rec.Start(trace.SpanID{}, "job")
	root.SetArg(int64(len(req.Sequence)))
	defer root.End()

	chain := backendChain(req.Backend)
	var lastErr error
	for i, backend := range chain {
		if i > 0 {
			s.jobsRetries.Inc()
			bsp := rec.Start(root.ID(), "job.backoff")
			select {
			case <-time.After(s.retryDelay(i)):
			case <-s.jobStop:
				// Draining mid-chain: leave the job Running in its
				// record; the next Open requeues and re-runs it.
				bsp.End()
				return
			}
			bsp.End()
		}
		s.jobs.Update(j.ID, func(x *jobstore.Job) { //nolint:errcheck
			if i > 0 {
				x.Attempts++
			}
			x.Backend = backend
		})
		asp := rec.Start(root.ID(), "job.attempt."+backend)
		asp.SetArg(int64(i + 1))
		_, err := s.computeJob(req, backend, rec, asp.ID())
		asp.End()
		if err == nil {
			s.jobsCompleted.Inc()
			// Key is where computeJob stored the result: not the key the
			// job carries when an older key version recorded it.
			key := CacheKey(req)
			s.jobs.Update(j.ID, func(x *jobstore.Job) { x.State, x.Key = jobstore.Done, key }) //nolint:errcheck
			return
		}
		lastErr = err
	}
	s.failJob(j.ID, fmt.Errorf("all backends failed (%s): %w",
		strings.Join(chain, "->"), lastErr))
}

// computeJob runs one attempt on one backend through the shared
// cache: the key excludes the backend (strict mode is bit-identical
// across engines), so a degraded retry, a concurrent /v1/analyze, or
// a pre-crash run all satisfy the same entry.
func (s *Server) computeJob(req *Request, backend string, rec *trace.Recorder, parent trace.SpanID) (cache.Outcome, error) {
	attempt := *req
	attempt.Backend = backend
	run := func() (any, error) {
		if s.failBackend != nil {
			if err := s.failBackend(backend); err != nil {
				return nil, err
			}
		}
		rep, err := s.runEngine(&attempt, rec, parent)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	_, outcome, err := s.cache.GetOrCompute(CacheKey(req), run)
	return outcome, err
}
