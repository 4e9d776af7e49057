// Package jobstore is the crash-safe persistence behind the async job
// API (internal/serve): every job is one checksummed record,
// <id>.job, so that work accepted with `202 {job_id}` is never silently
// lost — not by SIGKILL, not by a power cut, not by a full disk.
//
// # Durability model
//
// Each job lives in an atomicfile.Records directory: the record holds
// the job's full JSON state and is rewritten whole, under the store's
// mutex, on every mutation. atomicfile writes it to a temp file,
// fsyncs, renames and fsyncs the directory, so a mutation that returns
// nil is on stable storage, and a crash mid-write leaves the previous
// record (plus a stray temp file that Open ignores). Open is a
// directory scan: a record that fails its SHA-256 check is quarantined
// to <id>.job.bad, counted under jobstore/corrupt, and only that job is
// lost.
//
// What is NOT guaranteed: an update that fails to write (e.g. ENOSPC)
// is applied in memory but may be lost in a crash — the job then
// restarts at its previous durable state and is simply re-run, which is
// safe because results are deduplicated through the content-addressed
// cache key. Submissions are stricter: Submit fails loudly if the
// record cannot be made durable, so a 202 is only ever returned for
// recorded work.
package jobstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	// Pending: recorded, waiting for a worker (also the state every
	// interrupted Running job is returned to on recovery).
	Pending State = "pending"
	// Running: claimed by a worker.
	Running State = "running"
	// Done: completed; the result lives in the result cache under Key.
	Done State = "done"
	// Failed: every backend in the retry chain failed; Error explains.
	Failed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// Job is one durable unit of accepted work.
type Job struct {
	// ID is the client-facing job identifier.
	ID string `json:"id"`
	// Key is the content-addressed result cache key of the request;
	// recovery and retries deduplicate through it.
	Key string `json:"key"`
	// Request is the canonicalised request body, replayed on recovery.
	Request json.RawMessage `json:"request"`
	// TraceID links the job to its span trace (SSE progress).
	TraceID string `json:"trace_id,omitempty"`

	State State `json:"state"`
	// Attempts counts started execution attempts across restarts.
	Attempts int `json:"attempts"`
	// Backend is the backend of the most recent attempt (the retry
	// chain may have degraded it below the requested one).
	Backend string `json:"backend,omitempty"`
	// Error holds the final failure cause for State == Failed.
	Error string `json:"error,omitempty"`

	CreatedNS int64 `json:"created_ns"`
	UpdatedNS int64 `json:"updated_ns"`
}

// Store is the durable job table. All methods are safe for concurrent
// use.
type Store struct {
	mu     sync.Mutex
	recs   *atomicfile.Records
	jobs   map[string]*Job
	closed bool

	writes    obs.Counter
	writeErrs obs.Counter
	corrupt   obs.Counter
	jobsGauge obs.Gauge
}

// Open loads (or creates) the store rooted at dir. fsys nil selects
// the real filesystem; crash tests inject atomicfile/faultfs. Damaged
// records are quarantined and counted; they do not fail the open.
func Open(dir string, fsys atomicfile.FS) (*Store, error) {
	recs, err := atomicfile.OpenRecords(dir, ".job", fsys)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{recs: recs, jobs: make(map[string]*Job)}
	corrupt, err := recs.Scan(func(id string, val []byte) bool {
		var j Job
		if json.Unmarshal(val, &j) != nil || j.ID != id {
			s.corrupt.Inc()
			return true
		}
		s.jobs[id] = &j
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.corrupt.Add(int64(corrupt))
	s.jobsGauge.Set(int64(len(s.jobs)))
	return s, nil
}

// Bind registers the store's metrics in reg under jobstore/*.
func (s *Store) Bind(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.BindCounter("jobstore/writes", &s.writes)
	reg.BindCounter("jobstore/write_errors", &s.writeErrs)
	reg.BindCounter("jobstore/corrupt", &s.corrupt)
	reg.BindGauge("jobstore/jobs", &s.jobsGauge)
}

// writeLocked rewrites j's record durably. Caller holds s.mu.
func (s *Store) writeLocked(j *Job) error {
	data, err := json.Marshal(j)
	if err == nil {
		err = s.recs.Put(j.ID, data)
	}
	if err != nil {
		s.writeErrs.Inc()
		return fmt.Errorf("jobstore: write %s: %w", j.ID, err)
	}
	s.writes.Inc()
	return nil
}

// Submit records a new job and returns it as recorded. The job must
// carry ID, Key, and Request; zero State defaults to Pending and
// timestamps are stamped here. The record is durable (fsynced) before
// Submit returns a nil error — this is what makes a 202 a promise — and
// the returned Job is that record, not a later read of the store, so a
// worker that claims the job at once cannot change what the submitter
// reports.
func (s *Store) Submit(j Job) (Job, error) {
	if j.ID == "" || j.Key == "" {
		return Job{}, fmt.Errorf("jobstore: submit needs id and key")
	}
	if j.State == "" {
		j.State = Pending
	}
	now := time.Now().UnixNano()
	j.CreatedNS, j.UpdatedNS = now, now
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, fmt.Errorf("jobstore: closed")
	}
	if _, ok := s.jobs[j.ID]; ok {
		return Job{}, fmt.Errorf("jobstore: duplicate job id %q", j.ID)
	}
	if err := s.writeLocked(&j); err != nil {
		return Job{}, err
	}
	s.jobs[j.ID] = &j
	s.jobsGauge.Set(int64(len(s.jobs)))
	return j, nil
}

// Update applies mut to the job and records the new state. The
// in-memory mutation sticks even when the write fails (see the package
// durability model); the write error is returned for the caller to
// surface.
func (s *Store) Update(id string, mut func(*Job)) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("jobstore: unknown job %q", id)
	}
	mut(j)
	j.UpdatedNS = time.Now().UnixNano()
	err := error(nil)
	if !s.closed {
		err = s.writeLocked(j)
	}
	return *j, err
}

// Claim atomically selects the oldest pending job, marks it Running,
// records the transition, and returns it. ok is false when nothing
// is pending.
func (s *Store) Claim() (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest *Job
	for _, j := range s.jobs {
		if j.State != Pending {
			continue
		}
		if oldest == nil || j.CreatedNS < oldest.CreatedNS ||
			(j.CreatedNS == oldest.CreatedNS && j.ID < oldest.ID) {
			oldest = j
		}
	}
	if oldest == nil {
		return Job{}, false
	}
	oldest.State = Running
	oldest.Attempts++
	oldest.UpdatedNS = time.Now().UnixNano()
	if !s.closed {
		s.writeLocked(oldest) //nolint:errcheck // in-memory claim holds; see durability model
	}
	return *oldest, true
}

// RequeueRunning returns every Running job to Pending — the restart
// recovery step: a job that was mid-flight when the process died is
// re-run from scratch. Returns how many were requeued.
func (s *Store) RequeueRunning() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == Running {
			j.State = Pending
			j.UpdatedNS = time.Now().UnixNano()
			if !s.closed {
				s.writeLocked(j) //nolint:errcheck
			}
			n++
		}
	}
	return n
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of every job, oldest first.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedNS != out[b].CreatedNS {
			return out[a].CreatedNS < out[b].CreatedNS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// ActiveByKey returns a pending or running job with the given cache
// key, if any — submission-time deduplication.
func (s *Store) ActiveByKey(key string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.Key == key && !j.State.Terminal() {
			return *j, true
		}
	}
	return Job{}, false
}

// PendingCount returns the number of pending jobs.
func (s *Store) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == Pending {
			n++
		}
	}
	return n
}

// Len returns the number of known jobs (all states).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Close stops further writes: every record is already durable, so
// there is nothing to flush. Mutations after Close apply in memory only.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
