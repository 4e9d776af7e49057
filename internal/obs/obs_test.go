package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilReceiversSafe(t *testing.T) {
	// Every instrument must be a no-op on a nil receiver so optional
	// telemetry pointers can thread through hot paths unchecked.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter load")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge load")
	}
	var h *Histogram
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.BindCounter("x", &Counter{})
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot")
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1023, 9}, {1024, 10}, {1 << 34, 34}, {1 << 40, HistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndMean(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 1000 {
		t.Fatalf("count=%d sum=%d, want 10/1000", s.Count, s.Sum)
	}
	if s.Buckets[bucketFor(100)] != 10 {
		t.Fatalf("bucket miscount: %+v", s.Buckets)
	}
	if s.Mean() != 100*time.Nanosecond {
		t.Fatalf("mean = %v, want 100ns", s.Mean())
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

// Histograms merge by folding one's snapshot into the other live
// (Histogram.AddSnapshot, how per-run engine latencies reach a lifetime
// set).
func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10 * time.Nanosecond)
	b.Observe(1000 * time.Nanosecond)
	b.Observe(2000 * time.Nanosecond)
	a.AddSnapshot(b.Snapshot())
	sa := a.Snapshot()
	if sa.Count != 3 || sa.Sum != 3010 {
		t.Fatalf("merged count=%d sum=%d, want 3/3010", sa.Count, sa.Sum)
	}
	var total int64
	for _, n := range sa.Buckets {
		total += n
	}
	if total != 3 {
		t.Fatalf("merged bucket total = %d, want 3", total)
	}
}

func TestRegistryGetOrCreateAndBind(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}

	// A bound metric is shared: increments through the external owner
	// are visible in registry snapshots.
	var ext Counter
	reg.BindCounter("ext", &ext)
	ext.Add(9)
	snap := reg.Snapshot()
	if snap.Counters["ext"] != 9 {
		t.Fatalf("bound counter = %d, want 9", snap.Counters["ext"])
	}
	if reg.Counter("ext") != &ext {
		t.Fatal("bound counter not returned by get-or-create")
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Add(2)
	reg.Counter("a").Add(1)
	reg.Gauge("z").Set(-3)
	reg.Histogram("lat").Observe(50 * time.Microsecond)
	s := reg.Snapshot()
	doc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Counters["b"] != 2 || back.Gauges["z"] != -3 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Fatalf("histogram lost in JSON round-trip: %+v", back.Histograms)
	}
}

// TestSnapshotConcurrentConsistency hammers one registry from
// GOMAXPROCS goroutines while snapshotting continuously, asserting
// every snapshot is internally consistent: counters never regress
// between snapshots, and histograms never show a torn read in the
// observable direction (Observe writes bucket before count, Snapshot
// reads count before buckets, so sum(buckets) >= count always).
func TestSnapshotConcurrentConsistency(t *testing.T) {
	reg := NewRegistry()
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("c%d", w%4))
			h := reg.Histogram("lat")
			g := reg.Gauge("depth")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(time.Duration(1 + i%100000))
				g.Set(int64(i))
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	var prev Snapshot
	snaps := 0
	for time.Now().Before(deadline) {
		s := reg.Snapshot()
		snaps++
		for name, v := range s.Counters {
			if v < 0 {
				t.Fatalf("negative counter %s = %d", name, v)
			}
			if pv, ok := prev.Counters[name]; ok && v < pv {
				t.Fatalf("counter %s regressed: %d -> %d", name, pv, v)
			}
		}
		for name, hs := range s.Histograms {
			var sum int64
			for _, n := range hs.Buckets {
				if n < 0 {
					t.Fatalf("negative bucket in %s", name)
				}
				sum += n
			}
			if sum < hs.Count {
				t.Fatalf("torn histogram %s: bucket sum %d < count %d", name, sum, hs.Count)
			}
			if hs.Count > 0 && hs.Sum <= 0 {
				t.Fatalf("histogram %s count %d with sum %d", name, hs.Count, hs.Sum)
			}
			if pv, ok := prev.Histograms[name]; ok && hs.Count < pv.Count {
				t.Fatalf("histogram %s count regressed: %d -> %d", name, pv.Count, hs.Count)
			}
		}
		prev = s
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("no snapshots taken")
	}

	// Quiescent: the final snapshot must balance exactly.
	final := reg.Snapshot()
	hs := final.Histograms["lat"]
	var sum int64
	for _, n := range hs.Buckets {
		sum += n
	}
	if sum != hs.Count {
		t.Fatalf("quiescent bucket sum %d != count %d", sum, hs.Count)
	}
}

// TestRegistryConcurrentGetOrCreate races get-or-create against
// snapshots to ensure no lost registrations or duplicate instruments.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	const names = 16
	ptrs := make([]*Counter, names)
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				c := reg.Counter(fmt.Sprintf("n%d", i))
				c.Inc()
				mu.Lock()
				if ptrs[i] == nil {
					ptrs[i] = c
				} else if ptrs[i] != c {
					mu.Unlock()
					t.Errorf("duplicate counter instance for n%d", i)
					return
				}
				mu.Unlock()
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	var total int64
	for i := 0; i < names; i++ {
		total += s.Counters[fmt.Sprintf("n%d", i)]
	}
	if total != 8*names {
		t.Fatalf("total increments = %d, want %d", total, 8*names)
	}
}
