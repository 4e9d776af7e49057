package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestNilCountersAreSafe(t *testing.T) {
	var c *Counters
	c.AddAlignment(100, true)
	c.AddTraceback(50)
	c.AddShadowEnds(3)
	c.AddSpecWaste()
	if s := c.Snapshot(); s.Alignments != 0 || s.Cells != 0 || s.AlignLatency.Count != 0 {
		t.Errorf("nil counters snapshot = %+v", s)
	}
	c.AddSnapshot(Snapshot{Alignments: 1}) // nil-safe too
}

func TestCountersAccumulate(t *testing.T) {
	c := &Counters{}
	c.AddAlignment(100, false)
	c.AddAlignment(200, true)
	c.AddTraceback(50)
	c.AddShadowEnds(2)
	c.AddShadowEnds(0) // no-op
	c.AddSpecWaste()
	s := c.Snapshot()
	if s.Alignments != 2 || s.Realignments != 1 || s.Cells != 350 ||
		s.Tracebacks != 1 || s.ShadowEnds != 2 || s.SpecWaste != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

// TestAddSnapshotFolds checks the serve-layer accumulation path: two
// per-run snapshots folded into a lifetime set read back as their sum,
// including the latency histogram and per-tier counters.
func TestAddSnapshotFolds(t *testing.T) {
	run := &Counters{}
	run.AddAlignment(100, false)
	run.AddTierAlignments(1, 1, false)
	run.AddCPU(5000)
	run.ObserveAlignLatencyPer(1000, 1)
	life := &Counters{}
	life.AddSnapshot(run.Snapshot())
	life.AddSnapshot(run.Snapshot())
	s := life.Snapshot()
	if s.Alignments != 2 || s.Cells != 200 || s.CPUNanos != 10000 {
		t.Errorf("folded snapshot = %+v", s)
	}
	if s.TierAlignments[1] != 2 {
		t.Errorf("tier counters not folded: %v", s.TierAlignments)
	}
	if s.AlignLatency.Count != 2 || s.AlignLatency.Sum != 2000 {
		t.Errorf("latency histogram not folded: %+v", s.AlignLatency)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := &Counters{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddAlignment(1, j%2 == 0)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Alignments != 8000 || s.Cells != 8000 || s.Realignments != 4000 {
		t.Errorf("concurrent snapshot = %+v", s)
	}
}

func TestRealignmentReduction(t *testing.T) {
	s := Snapshot{Realignments: 50}
	// 10 tops over 100 splits: potential = 9*100 = 900; 50 done -> 94.4%
	got := s.RealignmentReduction(100, 10)
	if got < 0.944 || got > 0.945 {
		t.Errorf("reduction = %f", got)
	}
	if s.RealignmentReduction(100, 1) != 0 {
		t.Error("single top should report 0 reduction")
	}
	if s.RealignmentReduction(0, 5) != 0 {
		t.Error("zero splits should report 0")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Alignments: 5, Cells: 10}
	out := s.String()
	if !strings.Contains(out, "alignments=5") || !strings.Contains(out, "cells=10") {
		t.Errorf("String() = %q", out)
	}
}
