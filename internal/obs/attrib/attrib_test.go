package attrib

import (
	"encoding/json"
	"testing"
)

func TestUsageAddNilSafe(t *testing.T) {
	var u *Usage
	u.Add(&Usage{CPUNanos: 5}) // must not panic
	var v Usage
	v.Add(nil) // must not panic
	if v.CPUNanos != 0 {
		t.Fatalf("nil add mutated receiver: %+v", v)
	}
}

func TestUsageAddFolds(t *testing.T) {
	a := &Usage{CPUNanos: 10, Cells: 100, Alignments: 2, AllocBytes: 7,
		KernelTiers: map[string]int64{"int32x8": 2}}
	b := &Usage{CPUNanos: 5, Cells: 50, Alignments: 1, QueueWaitNanos: 3,
		CacheBytesRead: 9, KernelTiers: map[string]int64{"int32x8": 1, "scalar": 4}}
	a.Add(b)
	if a.CPUNanos != 15 || a.Cells != 150 || a.Alignments != 3 {
		t.Fatalf("bad fold: %+v", a)
	}
	if a.QueueWaitNanos != 3 || a.CacheBytesRead != 9 {
		t.Fatalf("bad fold of optional fields: %+v", a)
	}
	if a.KernelTiers["int32x8"] != 3 || a.KernelTiers["scalar"] != 4 {
		t.Fatalf("bad tier fold: %+v", a.KernelTiers)
	}
	// Folding into a record with a nil map must allocate one.
	c := &Usage{}
	c.Add(b)
	if c.KernelTiers["scalar"] != 4 {
		t.Fatalf("nil-map fold lost tiers: %+v", c.KernelTiers)
	}
}

func TestUsageJSONFieldNames(t *testing.T) {
	u := Usage{CPUNanos: 1, Cells: 2, Alignments: 3, AllocBytes: 4}
	raw, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cpu_ns", "cells", "alignments", "alloc_bytes"} {
		if _, ok := m[k]; !ok {
			t.Errorf("missing json field %q in %s", k, raw)
		}
	}
	// Zero optional fields must be omitted — they'd be noise on every
	// cache hit.
	for _, k := range []string{"queue_wait_ns", "engine_wall_ns", "cache_bytes_read", "kernel_tiers"} {
		if _, ok := m[k]; ok {
			t.Errorf("zero field %q not omitted in %s", k, raw)
		}
	}
}

// TestStopwatchMeasuresSpin verifies the thread-CPU clock actually
// advances with work on supported platforms. The spin is sized in
// iterations, not wall time, so the test stays fast on slow machines.
func TestStopwatchMeasuresSpin(t *testing.T) {
	if !ThreadCPUSupported() {
		t.Skip("no thread CPU clock on this platform")
	}
	var w Stopwatch
	w.Start()
	x := 1
	for i := 0; i < 5_000_000; i++ {
		x = x*31 + i
	}
	d := w.Stop()
	_ = x
	if d <= 0 {
		t.Fatalf("spin measured %dns CPU; thread clock not advancing", d)
	}
	// Stop without Start must be a 0 no-op.
	if w.Stop() != 0 {
		t.Fatal("double Stop should return 0")
	}
	var nilW *Stopwatch
	nilW.Start()
	if nilW.Stop() != 0 {
		t.Fatal("nil stopwatch should measure 0")
	}
}

// TestStopwatchIsolation checks the core attribution property: a
// pinned goroutine's thread clock does not advance while a *different*
// goroutine burns CPU. Run with a busy neighbour and confirm an idle
// stopwatch interval stays near zero.
func TestStopwatchIsolation(t *testing.T) {
	if !ThreadCPUSupported() {
		t.Skip("no thread CPU clock on this platform")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // busy neighbour
		defer close(done)
		x := 1
		for {
			select {
			case <-stop:
				return
			default:
				x = x*31 + 1
			}
		}
	}()
	var w Stopwatch
	w.Start()
	// Block (not spin) so this goroutine consumes ~no CPU while the
	// neighbour burns a full core.
	ch := make(chan struct{})
	go func() { close(ch) }()
	<-ch
	d := w.Stop()
	close(stop)
	<-done
	// Generous bound: anything under 50ms proves isolation (the
	// neighbour burned far more in the same window on any machine).
	if d > 50e6 {
		t.Fatalf("idle goroutine attributed %dns; thread clock leaking neighbour CPU", d)
	}
}

func TestProcessCPUMonotone(t *testing.T) {
	if !ThreadCPUSupported() {
		t.Skip("no process CPU clock on this platform")
	}
	a := ProcessCPU()
	x := 1
	for i := 0; i < 2_000_000; i++ {
		x = x*31 + i
	}
	_ = x
	b := ProcessCPU()
	if a <= 0 || b < a {
		t.Fatalf("process CPU not monotone: %d -> %d", a, b)
	}
}
