// Package jobstore is the crash-safe persistence behind the async job
// API (internal/serve): a write-ahead journal of job submissions and
// state transitions, so that work accepted with `202 {job_id}` is
// never silently lost — not by SIGKILL, not by a torn append, not by
// a full disk.
//
// # Durability model
//
// The store is a snapshot plus an append-only log:
//
//   - jobs.snap: the compacted state, a JSON document written
//     atomically (internal/atomicfile) with a CRC32 footer;
//   - jobs.wal: one framed record per mutation, appended and fsynced
//     before the mutation is acknowledged. Record layout:
//     [4B big-endian length][1B kind][JSON payload][4B CRC32(kind+payload)].
//
// Replay loads the snapshot, then applies WAL records in order. The
// log's tail is where crashes land, so replay is tail-tolerant: a
// truncated frame, a short body, or a CRC mismatch stops replay at the
// last good record, the damage is counted, and the store immediately
// compacts — the prefix survives, the torn tail is discarded. Records
// are full job states, so replaying a duplicate is idempotent
// (last-wins); a duplicate submit for an existing id is counted and
// treated as an update.
//
// What is NOT guaranteed: an update record that fails to append (e.g.
// ENOSPC) is applied in memory but may be lost in a crash — the job
// then replays at its previous state and is simply re-run, which is
// safe because results are deduplicated through the content-addressed
// cache key. Submissions are stricter: Submit fails loudly if the
// record cannot be made durable, so a 202 is only ever returned for
// journaled work.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	// Pending: journaled, waiting for a worker (also the state every
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

// record kinds.
const (
	recSubmit byte = 1
	recUpdate byte = 2
)

// maxRecordLen bounds a WAL record frame; anything larger is treated
// as framing garbage (the serving layer caps request bodies at 8 MiB).
const maxRecordLen = 16 << 20

// compactThreshold is the WAL size that triggers an inline compaction.
const compactThreshold = 4 << 20

const (
	walName  = "jobs.wal"
	snapName = "jobs.snap"
)

// ReplayStats describes what Open found in the journal.
type ReplayStats struct {
	// Records replayed cleanly from the WAL.
	Records int64
	// DroppedTailBytes discarded at the first torn or corrupt frame.
	DroppedTailBytes int64
	// DupSubmits: submit records for an already-known id (last-wins).
	DupSubmits int64
	// OrphanUpdates: update records for an unknown id (ignored).
	OrphanUpdates int64
	// SnapshotCorrupt: the snapshot failed its CRC and was discarded.
	SnapshotCorrupt bool
}

// Store is the durable job table. All methods are safe for concurrent
// use.
type Store struct {
	mu     sync.Mutex
	dir    string
	fsys   atomicfile.FS
	wal    atomicfile.AppendFile
	walLen int64
	jobs   map[string]*Job
	replay ReplayStats
	closed bool

	appends     obs.Counter
	appendErrs  obs.Counter
	compactions obs.Counter
	jobsGauge   obs.Gauge
	walGauge    obs.Gauge
}

// Open loads (or creates) the store rooted at dir. fsys nil selects
// the real filesystem; crash tests inject atomicfile/faultfs. Any
// torn tail found during replay is healed by an immediate compaction.
func Open(dir string, fsys atomicfile.FS) (*Store, error) {
	if fsys == nil {
		fsys = atomicfile.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{dir: dir, fsys: fsys, jobs: make(map[string]*Job)}
	s.loadSnapshot()
	damaged := s.replayWAL()
	if damaged {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	}
	wal, err := fsys.OpenAppend(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("jobstore: open wal: %w", err)
	}
	s.wal = wal
	if fi, err := fsys.Stat(filepath.Join(dir, walName)); err == nil {
		s.walLen = fi.Size()
	}
	s.jobsGauge.Set(int64(len(s.jobs)))
	s.walGauge.Set(s.walLen)
	return s, nil
}

// Bind registers the store's metrics in reg under jobstore/*.
func (s *Store) Bind(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.BindCounter("jobstore/appends", &s.appends)
	reg.BindCounter("jobstore/append_errors", &s.appendErrs)
	reg.BindCounter("jobstore/compactions", &s.compactions)
	reg.BindGauge("jobstore/jobs", &s.jobsGauge)
	reg.BindGauge("jobstore/wal_bytes", &s.walGauge)
}

// Replay returns what Open found in the journal.
func (s *Store) Replay() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// loadSnapshot reads jobs.snap (JSON + 4-byte CRC32 footer). A
// missing snapshot is normal; a corrupt one is discarded and counted
// (the WAL since the last good compaction still replays).
func (s *Store) loadSnapshot() {
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, snapName))
	if err != nil {
		return
	}
	if len(data) < 4 {
		s.replay.SnapshotCorrupt = true
		return
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(foot) {
		s.replay.SnapshotCorrupt = true
		return
	}
	var jobs []*Job
	if err := json.Unmarshal(body, &jobs); err != nil {
		s.replay.SnapshotCorrupt = true
		return
	}
	for _, j := range jobs {
		s.jobs[j.ID] = j
	}
}

// replayWAL applies the log on top of the snapshot. Returns true when
// the log had a torn or corrupt tail (or the snapshot was corrupt)
// and the store should compact to heal.
func (s *Store) replayWAL() bool {
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, walName))
	if err != nil {
		return s.replay.SnapshotCorrupt
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < 4 {
			s.replay.DroppedTailBytes = int64(len(rest))
			break
		}
		n := int(binary.BigEndian.Uint32(rest))
		if n < 1 || n > maxRecordLen || len(rest) < 4+n+4 {
			s.replay.DroppedTailBytes = int64(len(rest))
			break
		}
		body, foot := rest[4:4+n], rest[4+n:4+n+4]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(foot) {
			// A bad CRC mid-log means nothing after this offset can be
			// trusted either — frame boundaries derive from lengths
			// inside the damaged region. Conservative: stop here.
			s.replay.DroppedTailBytes = int64(len(rest))
			break
		}
		s.applyRecord(body[0], body[1:])
		s.replay.Records++
		off += 4 + n + 4
	}
	return s.replay.DroppedTailBytes > 0 || s.replay.SnapshotCorrupt
}

// applyRecord folds one good record into the table.
func (s *Store) applyRecord(kind byte, payload []byte) {
	var j Job
	if err := json.Unmarshal(payload, &j); err != nil || j.ID == "" {
		s.replay.OrphanUpdates++
		return
	}
	switch kind {
	case recSubmit:
		if prev, ok := s.jobs[j.ID]; ok {
			s.replay.DupSubmits++
			j.CreatedNS = prev.CreatedNS // the first submission wins the birth time
		}
		s.jobs[j.ID] = &j
	case recUpdate:
		if _, ok := s.jobs[j.ID]; !ok {
			s.replay.OrphanUpdates++
			return
		}
		s.jobs[j.ID] = &j
	default:
		s.replay.OrphanUpdates++
	}
}

// encodeRecord frames kind+payload for the WAL.
func encodeRecord(kind byte, payload []byte) []byte {
	body := make([]byte, 0, 1+len(payload))
	body = append(body, kind)
	body = append(body, payload...)
	rec := make([]byte, 0, 4+len(body)+4)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(body)))
	rec = append(rec, body...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return rec
}

// appendLocked journals one record and fsyncs. Caller holds s.mu.
func (s *Store) appendLocked(kind byte, j *Job) error {
	payload, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("jobstore: marshal: %w", err)
	}
	rec := encodeRecord(kind, payload)
	if _, err := s.wal.Write(rec); err != nil {
		s.appendErrs.Inc()
		// The tail may now be torn. Replay tolerates that, but heal
		// eagerly when the disk lets us: compaction rewrites state
		// atomically and truncates the log.
		if cerr := s.compactLocked(); cerr == nil {
			if wal, oerr := s.fsys.OpenAppend(filepath.Join(s.dir, walName)); oerr == nil {
				s.wal.Close()
				s.wal = wal
				s.walLen = 0
				s.walGauge.Set(0)
			}
		}
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.appendErrs.Inc()
		return fmt.Errorf("jobstore: sync: %w", err)
	}
	s.appends.Inc()
	s.walLen += int64(len(rec))
	s.walGauge.Set(s.walLen)
	if s.walLen > compactThreshold {
		if err := s.compactLocked(); err == nil {
			if wal, oerr := s.fsys.OpenAppend(filepath.Join(s.dir, walName)); oerr == nil {
				s.wal.Close()
				s.wal = wal
				s.walLen = 0
				s.walGauge.Set(0)
			}
		}
	}
	return nil
}

// compactLocked writes the snapshot atomically and truncates the WAL.
// Crash-ordering: the snapshot lands first (atomic rename), so a crash
// before the truncate merely replays WAL records the snapshot already
// contains — records carry full job state, so that is idempotent.
func (s *Store) compactLocked() error {
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].CreatedNS < jobs[b].CreatedNS })
	body, err := json.Marshal(jobs)
	if err != nil {
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	data := make([]byte, 0, len(body)+4)
	data = append(data, body...)
	data = binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
	if err := s.fsys.WriteFile(filepath.Join(s.dir, snapName), data, 0o644); err != nil {
		return fmt.Errorf("jobstore: snapshot: %w", err)
	}
	if err := s.fsys.Truncate(filepath.Join(s.dir, walName), 0); err != nil {
		// Harmless if it stays: replay is idempotent over the snapshot.
		return nil
	}
	s.compactions.Inc()
	return nil
}

// Compact forces a snapshot + WAL truncation (tests, clean shutdown).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if wal, err := s.fsys.OpenAppend(filepath.Join(s.dir, walName)); err == nil {
			s.wal.Close()
			s.wal = wal
		}
	}
	s.walLen = 0
	s.walGauge.Set(0)
	return nil
}

// Submit journals a new job and returns it as journalled. The job must
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
	if err := s.appendLocked(recSubmit, &j); err != nil {
		return Job{}, err
	}
	s.jobs[j.ID] = &j
	s.jobsGauge.Set(int64(len(s.jobs)))
	return j, nil
}

// Update applies mut to the job and journals the new state. The
// in-memory mutation sticks even when the append fails (see the
// package durability model); the append error is returned for the
// caller to surface.
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
		err = s.appendLocked(recUpdate, j)
	}
	return *j, err
}

// Claim atomically selects the oldest pending job, marks it Running,
// journals the transition, and returns it. ok is false when nothing
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
		s.appendLocked(recUpdate, oldest) //nolint:errcheck // in-memory claim holds; see durability model
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
				s.appendLocked(recUpdate, j) //nolint:errcheck
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

// Close compacts and releases the WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.compactLocked() //nolint:errcheck // best effort; the WAL already holds everything
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}
