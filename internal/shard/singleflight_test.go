package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupCollapses: N concurrent callers for one key run fn
// exactly once; one leads, the rest share the leader's result. Run
// under -race this also exercises the table's locking.
func TestFlightGroupCollapses(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	gate := make(chan struct{})

	const n = 32
	var wg, entered sync.WaitGroup
	results := make([]*upstreamResult, n)
	sharedFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		entered.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			results[i], sharedFlags[i] = g.do("key", func() *upstreamResult {
				<-gate // hold the flight open until every waiter has joined
				calls.Add(1)
				return &upstreamResult{status: 200, body: []byte("one"), shard: "s0"}
			})
		}(i)
	}
	// Wait for every caller to be running and the flight to be
	// registered, give the callers the few instructions between their
	// signal and the table lookup, then release: a caller that looked
	// the key up after the flight ended would rightly lead a second one.
	entered.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		fl := g.m["key"]
		g.mu.Unlock()
		if fl != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if !sharedFlags[i] {
			leaders++
		}
		if results[i] == nil || string(results[i].body) != "one" {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
}

// TestFlightGroupErrorNotCached: an error result reaches the waiters of
// that flight but the next call starts fresh.
func TestFlightGroupErrorNotCached(t *testing.T) {
	g := newFlightGroup()
	res, shared := g.do("k", func() *upstreamResult {
		return &upstreamResult{err: fmt.Errorf("boom")}
	})
	if shared || res.err == nil {
		t.Fatalf("first call: res=%+v shared=%v", res, shared)
	}
	res, shared = g.do("k", func() *upstreamResult {
		return &upstreamResult{status: 200}
	})
	if shared || res.err != nil || res.status != 200 {
		t.Fatalf("second call did not start fresh: res=%+v shared=%v", res, shared)
	}
}

// TestFlightGroupDistinctKeys: different keys never share a flight.
func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.do(fmt.Sprintf("k%d", i), func() *upstreamResult {
				calls.Add(1)
				return &upstreamResult{status: 200}
			})
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 8 {
		t.Fatalf("fn ran %d times, want 8", got)
	}
}
