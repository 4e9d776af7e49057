package jobstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/atomicfile/faultfs"
	"repro/internal/obs"
)

func mustSubmit(t *testing.T, s *Store, id, key string) {
	t.Helper()
	j, err := s.Submit(Job{ID: id, Key: key, Request: json.RawMessage(`{"sequence":"ATGC"}`)})
	if err != nil {
		t.Fatal(err)
	}
	// what Submit returns is the written record, whatever has claimed
	// the job since
	if j.ID != id || j.State != Pending || j.CreatedNS == 0 || j.UpdatedNS != j.CreatedNS {
		t.Fatalf("Submit returned %+v, want the pending record it wrote", j)
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
	// Reopen WITHOUT Close: simulates SIGKILL. Everything recorded
	// must come back.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j1, ok := s2.Get("j1")
	if !ok || j1.State != Pending || j1.Key != "k1" {
		t.Fatalf("j1 after reopen: %+v ok=%v", j1, ok)
	}
	j2, ok := s2.Get("j2")
	if !ok || j2.State != Done || j2.Backend != "cluster" {
		t.Fatalf("j2 after reopen: %+v ok=%v", j2, ok)
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

// TestRecordFaults drives each thing a disk or a crash can do to the
// records and checks what a reopen of the directory finds. Every row
// starts from jobs a (claimed: Running) and b (Pending), with no Close.
func TestRecordFaults(t *testing.T) {
	cases := []struct {
		name        string
		fault       func(t *testing.T, dir string)
		wantIDs     []string
		wantCorrupt int64
	}{
		{
			name: "damaged record is quarantined and counted, the rest intact",
			fault: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "b.job")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x40
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantIDs:     []string{"a"},
			wantCorrupt: 1,
		},
		{
			name: "ENOSPC on Update keeps memory, reopen shows the durable state",
			fault: func(t *testing.T, dir string) {
				s, err := Open(dir, faultfs.Wrap(atomicfile.OS(), faultfs.Config{WriteBudget: 1}))
				if err != nil {
					t.Fatal(err)
				}
				j, err := s.Update("a", func(j *Job) { j.State = Done })
				if !errors.Is(err, syscall.ENOSPC) {
					t.Fatalf("Update on a full disk: err = %v, want ENOSPC", err)
				}
				if got, _ := s.Get("a"); j.State != Done || got.State != Done {
					t.Fatalf("failed Update did not stick in memory: %+v, %+v", j, got)
				}
			},
			wantIDs: []string{"a", "b"},
		},
		{
			name: "a crashed writer's temp file is ignored",
			fault: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "a.job.tmp123"), []byte{0, 0, 0, 1, 'a'}, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantIDs: []string{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			mustSubmit(t, s, "a", "ka")
			mustSubmit(t, s, "b", "kb")
			if j, ok := s.Claim(); !ok || j.ID != "a" {
				t.Fatalf("claim: %+v %v", j, ok)
			}
			tc.fault(t, dir)

			s2, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			s2.Bind(reg)
			if got := reg.Snapshot().Counters["jobstore/corrupt"]; got != tc.wantCorrupt {
				t.Errorf("jobstore/corrupt = %d, want %d", got, tc.wantCorrupt)
			}
			var ids []string
			for _, j := range s2.List() {
				ids = append(ids, j.ID)
			}
			if !slices.Equal(ids, tc.wantIDs) {
				t.Fatalf("jobs after reopen = %v, want %v", ids, tc.wantIDs)
			}
			if a, _ := s2.Get("a"); a.State != Running || a.Attempts != 1 {
				t.Errorf("a after reopen = %+v, want its durable Running state", a)
			}
			if _, err := os.Stat(filepath.Join(dir, "b.job.bad")); (err == nil) != (tc.wantCorrupt > 0) {
				t.Errorf("quarantine file b.job.bad: %v, want present = %v", err, tc.wantCorrupt > 0)
			}
		})
	}
}
