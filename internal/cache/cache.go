// Package cache is a content-addressed result cache with singleflight
// deduplication, the memory behind the serving layer (internal/serve):
// identical analysis requests hit a stored result instead of re-running
// the engine, and concurrent identical requests share one computation.
//
// It lives in memory only: an LRU bounded both by entry count and by
// bytes (entries are pre-encoded report JSON, whose sizes vary by
// orders of magnitude, so a count bound alone would leave memory
// unbounded). Results do not outlive the process.
//
// The cache stores opaque values under string keys; the serving layer
// derives keys from SHA-256(sequence) plus the canonicalised analysis
// parameters (see serve.CacheKey), so two requests collide exactly when
// the engine would produce bit-identical reports for both. Errors are
// never cached: a failed computation is retried by the next request
// for the same key.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Cache is a fixed-capacity LRU with integrated singleflight. All
// methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call

	hits      obs.Counter
	misses    obs.Counter
	shared    obs.Counter // callers that waited on another's in-flight computation
	evictions obs.Counter
	oversize  obs.Counter
	entries   obs.Gauge
	bytesG    obs.Gauge
}

type entry struct {
	key  string
	val  any
	size int64
}

// call is one in-flight computation other requests can wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// DefaultCapacity is the entry capacity New(0) selects.
const DefaultCapacity = 256

// DefaultMaxBytes is the byte bound selected when none is given:
// 256 MiB, comfortably under the serving host's memory envelope while
// holding thousands of typical pre-encoded reports.
const DefaultMaxBytes = 256 << 20

// unknownEntrySize is charged for values whose size the cache cannot
// see ([]byte and string are measured exactly). Deliberately
// conservative: opaque values are rare (tests), and overcharging only
// evicts earlier.
const unknownEntrySize = 512

// New returns a cache holding up to capacity entries
// (DefaultCapacity when capacity <= 0) and DefaultMaxBytes bytes.
func New(capacity int) *Cache {
	return NewSized(capacity, 0)
}

// NewSized returns a cache bounded by capacity entries AND maxBytes
// bytes of stored values, whichever bites first (defaults for values
// <= 0). A value larger than maxBytes on its own is served but never
// cached (counted under cache/oversize).
func NewSized(capacity int, maxBytes int64) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// sizeOf measures a stored value's memory charge.
func sizeOf(val any) int64 {
	switch v := val.(type) {
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	default:
		return unknownEntrySize
	}
}

// Bind registers the cache's counters in reg under the cache/
// namespace. No-op when reg is nil.
func (c *Cache) Bind(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.BindCounter("cache/hits", &c.hits)
	reg.BindCounter("cache/misses", &c.misses)
	reg.BindCounter("cache/shared", &c.shared)
	reg.BindCounter("cache/evictions", &c.evictions)
	reg.BindCounter("cache/oversize", &c.oversize)
	reg.BindGauge("cache/entries", &c.entries)
	reg.BindGauge("cache/bytes", &c.bytesG)
}

// Outcome reports how GetOrCompute satisfied a request.
type Outcome uint8

const (
	// Hit: the value was already in memory.
	Hit Outcome = iota
	// Miss: this call ran the compute function.
	Miss
	// Shared: an identical computation was already in flight; this
	// call waited for it instead of recomputing.
	Shared
)

// String names the outcome for response metadata.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Shared:
		return "shared"
	}
	return "unknown"
}

// Get returns the cached value for key, if any, marking it recently
// used. It never waits on an in-flight computation: a key still being
// computed is a miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry).val, true
	}
	c.misses.Inc()
	return nil, false
}

// GetOrCompute returns the value for key, computing it with fn on a
// miss. Concurrent calls for the same key share one fn invocation: the
// first caller runs it, the rest block until it finishes (Outcome
// Shared). A successful value is inserted into the LRU; an error is
// returned to every waiter and nothing is cached.
func (c *Cache) GetOrCompute(key string, fn func() (any, error)) (any, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, Hit, nil
	}
	if waiting, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-waiting.done
		c.shared.Inc()
		return waiting.val, Shared, waiting.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = fn()
	c.misses.Inc()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, Miss, cl.err
}

// Add inserts a value directly (replacing any existing entry for key).
func (c *Cache) Add(key string, val any) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
}

// insertLocked adds key -> val, evicting from the LRU tail while over
// the entry or byte bound. Caller holds c.mu.
func (c *Cache) insertLocked(key string, val any) {
	size := sizeOf(val)
	if size > c.maxBytes {
		// Caching it would evict everything else for one entry the
		// next insert throws away; serve it uncached instead.
		c.oversize.Inc()
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > 1 && (c.ll.Len() > c.capacity || c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
	c.bytesG.Set(c.bytes)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed size of the cached values.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
