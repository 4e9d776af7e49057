package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/atomicfile/faultfs"
)

func mustSubmit(t *testing.T, s *Store, id, key string) {
	t.Helper()
	j, err := s.Submit(Job{ID: id, Key: key, Request: json.RawMessage(`{"sequence":"ATGC"}`)})
	if err != nil {
		t.Fatal(err)
	}
	// what Submit returns is the journalled record, whatever has claimed
	// the job since
	if j.ID != id || j.State != Pending || j.CreatedNS == 0 || j.UpdatedNS != j.CreatedNS {
		t.Fatalf("Submit returned %+v, want the pending record it journalled", j)
	}
}

func TestSubmitGetRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "j1", "k1")
	mustSubmit(t, s, "j2", "k2")
	if _, err := s.Update("j2", func(j *Job) { j.State = Done; j.Backend = "cluster" }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{ID: "j1", Key: "k1"}); err == nil {
		t.Fatal("duplicate submit accepted")
	}
	// Reopen WITHOUT Close: simulates SIGKILL. Everything journaled
	// must come back.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j1, ok := s2.Get("j1")
	if !ok || j1.State != Pending || j1.Key != "k1" {
		t.Fatalf("j1 after replay: %+v ok=%v", j1, ok)
	}
	j2, ok := s2.Get("j2")
	if !ok || j2.State != Done || j2.Backend != "cluster" {
		t.Fatalf("j2 after replay: %+v ok=%v", j2, ok)
	}
	if len(s2.List()) != 2 {
		t.Fatalf("List = %d jobs", len(s2.List()))
	}
}

func TestClaimOrderAndRequeue(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustSubmit(t, s, "a", "ka")
	mustSubmit(t, s, "b", "kb")
	j, ok := s.Claim()
	if !ok || j.ID != "a" || j.State != Running || j.Attempts != 1 {
		t.Fatalf("first claim: %+v ok=%v", j, ok)
	}
	j, ok = s.Claim()
	if !ok || j.ID != "b" {
		t.Fatalf("second claim: %+v", j)
	}
	if _, ok := s.Claim(); ok {
		t.Fatal("claim on empty pending set")
	}
	if n := s.RequeueRunning(); n != 2 {
		t.Fatalf("RequeueRunning = %d, want 2", n)
	}
	if s.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d", s.PendingCount())
	}
	// Attempts survive the requeue: recovery does not reset history.
	j, _ = s.Claim()
	if j.Attempts != 2 {
		t.Fatalf("attempts after requeue+claim = %d, want 2", j.Attempts)
	}
}

func TestActiveByKeyDedup(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustSubmit(t, s, "j1", "shared-key")
	if j, ok := s.ActiveByKey("shared-key"); !ok || j.ID != "j1" {
		t.Fatalf("ActiveByKey: %+v %v", j, ok)
	}
	s.Update("j1", func(j *Job) { j.State = Done }) //nolint:errcheck
	if _, ok := s.ActiveByKey("shared-key"); ok {
		t.Fatal("terminal job still reported active")
	}
}

// wal builds a raw WAL from parts for the replay table tests.
func walRecord(kind byte, j Job) []byte {
	payload, _ := json.Marshal(j)
	body := append([]byte{kind}, payload...)
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	rec = append(rec, body...)
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
}

func TestReplayTable(t *testing.T) {
	good1 := walRecord(recSubmit, Job{ID: "j1", Key: "k1", State: Pending, CreatedNS: 1})
	good2 := walRecord(recUpdate, Job{ID: "j1", Key: "k1", State: Done, CreatedNS: 1})
	dupJ1 := walRecord(recSubmit, Job{ID: "j1", Key: "k1b", State: Running, CreatedNS: 9})
	orphan := walRecord(recUpdate, Job{ID: "ghost", Key: "k", State: Done, CreatedNS: 2})

	corrupt := append([]byte{}, good2...)
	corrupt[len(corrupt)-1] ^= 0xFF // break the CRC footer

	flipBody := append([]byte{}, good2...)
	flipBody[10] ^= 0x01 // corrupt the payload, CRC now mismatches

	cases := []struct {
		name        string
		wal         []byte
		wantState   State
		wantJobs    int
		wantRecords int64
		wantDropped bool
		wantDups    int64
		wantOrphans int64
	}{
		{
			name:        "clean",
			wal:         append(append([]byte{}, good1...), good2...),
			wantState:   Done,
			wantJobs:    1,
			wantRecords: 2,
		},
		{
			name:        "truncated tail frame",
			wal:         append(append([]byte{}, good1...), good2[:len(good2)-3]...),
			wantState:   Pending, // the torn update is discarded
			wantJobs:    1,
			wantRecords: 1,
			wantDropped: true,
		},
		{
			name:        "truncated header",
			wal:         append(append([]byte{}, good1...), 0x00, 0x00),
			wantState:   Pending,
			wantJobs:    1,
			wantRecords: 1,
			wantDropped: true,
		},
		{
			name:        "corrupt crc footer stops replay",
			wal:         append(append(append([]byte{}, good1...), corrupt...), good2...),
			wantState:   Pending, // nothing after the bad frame is trusted
			wantJobs:    1,
			wantRecords: 1,
			wantDropped: true,
		},
		{
			name:        "corrupt payload stops replay",
			wal:         append(append([]byte{}, good1...), flipBody...),
			wantState:   Pending,
			wantJobs:    1,
			wantRecords: 1,
			wantDropped: true,
		},
		{
			name:        "duplicate job id is last-wins and counted",
			wal:         append(append([]byte{}, good1...), dupJ1...),
			wantState:   Running,
			wantJobs:    1,
			wantRecords: 2,
			wantDups:    1,
		},
		{
			name:        "orphan update ignored and counted",
			wal:         append(append([]byte{}, orphan...), good1...),
			wantState:   Pending,
			wantJobs:    1,
			wantRecords: 2,
			wantOrphans: 1,
		},
		{
			name:        "garbage length field",
			wal:         append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good1...),
			wantJobs:    0,
			wantRecords: 0,
			wantDropped: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName), tc.wal, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st := s.Replay()
			if st.Records != tc.wantRecords {
				t.Errorf("Records = %d, want %d", st.Records, tc.wantRecords)
			}
			if (st.DroppedTailBytes > 0) != tc.wantDropped {
				t.Errorf("DroppedTailBytes = %d, dropped want %v", st.DroppedTailBytes, tc.wantDropped)
			}
			if st.DupSubmits != tc.wantDups {
				t.Errorf("DupSubmits = %d, want %d", st.DupSubmits, tc.wantDups)
			}
			if st.OrphanUpdates != tc.wantOrphans {
				t.Errorf("OrphanUpdates = %d, want %d", st.OrphanUpdates, tc.wantOrphans)
			}
			if s.Len() != tc.wantJobs {
				t.Fatalf("Len = %d, want %d", s.Len(), tc.wantJobs)
			}
			if tc.wantJobs == 1 {
				j, ok := s.Get("j1")
				if !ok || j.State != tc.wantState {
					t.Errorf("j1 = %+v ok=%v, want state %s", j, ok, tc.wantState)
				}
				if tc.wantDups > 0 && j.CreatedNS != 1 {
					t.Errorf("dup submit clobbered CreatedNS: %d", j.CreatedNS)
				}
			}
			// A damaged log must have been healed: reopening finds a
			// clean WAL and the same state.
			s.Close()
			s2, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if st2 := s2.Replay(); st2.DroppedTailBytes > 0 {
				t.Errorf("damage not healed: second open dropped %d bytes", st2.DroppedTailBytes)
			}
			if s2.Len() != tc.wantJobs {
				t.Errorf("after heal: Len = %d, want %d", s2.Len(), tc.wantJobs)
			}
		})
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustSubmit(t, s, string(rune('a'+i)), "k")
	}
	s.Update("a", func(j *Job) { j.State = Failed; j.Error = "boom" }) //nolint:errcheck
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after compact: %v size=%d", err, fi.Size())
	}
	// Post-compaction appends land in the fresh WAL and replay fine.
	mustSubmit(t, s, "post", "k2")
	s.Close()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 11 {
		t.Fatalf("Len = %d, want 11", s2.Len())
	}
	a, _ := s2.Get("a")
	if a.State != Failed || a.Error != "boom" {
		t.Fatalf("a = %+v", a)
	}
	if _, ok := s2.Get("post"); !ok {
		t.Fatal("post-compaction record lost")
	}
}

// A torn append (injected) must cost at most the record being written:
// everything already acknowledged survives the reopen.
func TestTornAppendLosesOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "ok1", "k1")
	mustSubmit(t, s, "ok2", "k2")
	s.Close()

	// Reopen with fault injection: the next append tears.
	fsys := faultfs.Wrap(atomicfile.OS(), faultfs.Config{Seed: 5, TornWriteProb: 1})
	s2, err := Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Submit(Job{ID: "torn", Key: "k3"}); err == nil {
		t.Fatal("submit over a torn append reported success")
	}
	// No Close (crash). Replay on clean storage: the acknowledged jobs
	// are intact; the torn submission is gone or pending — never a
	// corrupted table.
	s3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for _, id := range []string{"ok1", "ok2"} {
		if _, ok := s3.Get(id); !ok {
			t.Fatalf("acknowledged job %s lost", id)
		}
	}
}

func TestENOSPCSubmitFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "pre", "k")
	s.Close()

	fsys := faultfs.Wrap(atomicfile.OS(), faultfs.Config{WriteBudget: 1})
	s2, err := Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Submit(Job{ID: "nospace", Key: "k2"}); err == nil {
		t.Fatal("submit on a full disk reported success")
	}
	s3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.Get("pre"); !ok {
		t.Fatal("pre-existing job lost to ENOSPC")
	}
}

func TestCorruptSnapshotDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "a", "k1")
	mustSubmit(t, s, "b", "k2")
	if err := s.Close(); err != nil { // compacts: state now lives in jobs.snap
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "jobs.snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x08
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The CRC catches the flip: the snapshot is discarded (never
	// half-trusted) and flagged, and reopening heals by writing a
	// fresh consistent (empty) snapshot.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Replay().SnapshotCorrupt {
		t.Error("corrupt snapshot not flagged")
	}
	if n := s2.Len(); n != 0 {
		t.Errorf("jobs after corrupt snapshot = %d, want 0", n)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Replay().SnapshotCorrupt {
		t.Error("healed store still reports snapshot corruption")
	}
	s3.Close() //nolint:errcheck

	// A short (truncated-footer) snapshot is equally discarded.
	dir2 := t.TempDir()
	s4, _ := Open(dir2, nil)
	mustSubmit(t, s4, "c", "k3")
	s4.Close() //nolint:errcheck
	if err := os.WriteFile(filepath.Join(dir2, "jobs.snap"), []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	s5, err := Open(dir2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s5.Replay().SnapshotCorrupt {
		t.Error("truncated snapshot not flagged")
	}
	s5.Close() //nolint:errcheck
}
