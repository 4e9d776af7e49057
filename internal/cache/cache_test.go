package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Add("k3", 3)
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
}

func TestGetOrComputeCachesValues(t *testing.T) {
	c := New(8)
	calls := 0
	fn := func() (any, error) { calls++; return "v", nil }

	v, out, err := c.GetOrCompute("k", fn)
	if err != nil || v != "v" || out != Miss {
		t.Fatalf("first call: v=%v outcome=%v err=%v", v, out, err)
	}
	v, out, err = c.GetOrCompute("k", fn)
	if err != nil || v != "v" || out != Hit {
		t.Fatalf("second call: v=%v outcome=%v err=%v", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, out, err := c.GetOrCompute("k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 || out != Miss {
		t.Fatalf("retry after error: v=%v outcome=%v err=%v", v, out, err)
	}
}

// TestSingleflightDedup asserts that concurrent identical requests
// share exactly one computation.
func TestSingleflightDedup(t *testing.T) {
	c := New(8)
	var runs atomic.Int64
	gate := make(chan struct{})

	const waiters = 32
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.GetOrCompute("k", func() (any, error) {
				runs.Add(1)
				<-gate // hold the computation open so others pile up
				return "shared", nil
			})
			if err != nil || v != "shared" {
				t.Errorf("waiter %d: v=%v err=%v", i, v, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Let every goroutine reach the cache before releasing the leader.
	for c.inflightLen() == 0 {
	}
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	var miss, shared int
	for _, o := range outcomes {
		switch o {
		case Miss:
			miss++
		case Shared:
			shared++
		}
	}
	if miss != 1 {
		t.Errorf("%d Miss outcomes, want exactly 1 (got %d Shared)", miss, shared)
	}
}

// TestGetMissCounted pins that a miss through Get
// increments the miss counter exactly once per probe.
func TestGetMissCounted(t *testing.T) {
	c := New(8)
	reg := obs.NewRegistry()
	c.Bind(reg)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("unexpected hit")
	}
	if got := reg.Snapshot().Counters["cache/misses"]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// inflightLen is a test helper reading the in-flight map size.
func (c *Cache) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// TestEvictionSingleflightRace hammers a small cache from many
// goroutines with overlapping keys so insertions, evictions, hits, and
// singleflight joins interleave; run with -race. Every call must get
// the value its key maps to, regardless of cache churn.
func TestEvictionSingleflightRace(t *testing.T) {
	c := New(4) // far smaller than the key space, so evictions are constant
	reg := obs.NewRegistry()
	c.Bind(reg)

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				want := "v-" + key
				v, _, err := c.GetOrCompute(key, func() (any, error) {
					return "v-" + key, nil
				})
				if err != nil {
					t.Errorf("GetOrCompute(%s): %v", key, err)
					return
				}
				if v != want {
					t.Errorf("GetOrCompute(%s) = %v, want %v", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Len() > 4 {
		t.Errorf("cache grew past capacity: %d", c.Len())
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["cache/hits"], snap.Counters["cache/misses"]
	if hits+misses == 0 {
		t.Error("no cache traffic recorded")
	}
	if snap.Counters["cache/evictions"] == 0 {
		t.Error("expected evictions with 12 keys in a 4-entry cache")
	}
}

func TestByteBoundEviction(t *testing.T) {
	// 10 entries allowed by count, but only ~3 by bytes.
	c := NewSized(10, 3*100)
	for i := 0; i < 6; i++ {
		c.Add(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (byte bound)", c.Len())
	}
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	// Newest survive, oldest evicted.
	if _, ok := c.Get("k5"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived the byte bound")
	}
	_, _, ev := c.Stats()
	if ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
}

func TestOversizeValueNeverCached(t *testing.T) {
	c := NewSized(10, 100)
	got, out, err := c.GetOrCompute("big", func() (any, error) {
		return make([]byte, 1000), nil
	})
	if err != nil || out != Miss || len(got.([]byte)) != 1000 {
		t.Fatalf("oversize serve: %v %v", out, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize value cached: len %d bytes %d", c.Len(), c.Bytes())
	}
	// Normal entries still cache fine afterwards.
	c.Add("small", make([]byte, 10))
	if c.Len() != 1 {
		t.Fatal("small entry not cached")
	}
}

// Replacing an entry adjusts the byte account instead of leaking it.
func TestReplaceAdjustsBytes(t *testing.T) {
	c := NewSized(4, 1000)
	c.Add("k", make([]byte, 100))
	c.Add("k", make([]byte, 300))
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Hit: "hit", Miss: "miss", Shared: "shared", Outcome(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}
