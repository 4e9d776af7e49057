// Package cache is a content-addressed result cache with singleflight
// deduplication, the memory behind the serving layer (internal/serve):
// identical analysis requests hit a stored result instead of re-running
// the engine, and concurrent identical requests share one computation.
//
// It is two tiers. The in-memory LRU is bounded both by entry count
// and by bytes (entries are pre-encoded report JSON, whose sizes vary
// by orders of magnitude, so a count bound alone would leave memory
// unbounded). The optional disk tier (Disk) persists entries as
// checksummed content-addressed files, so warm state survives
// restarts: a memory miss falls through to disk before the engine
// runs, and Prewarm reloads the LRU on startup.
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

// Cache is a fixed-capacity LRU with integrated singleflight and an
// optional persistent tier. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call
	disk     *Disk

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

// call is one in-flight computation (or disk read) other requests can
// wait on.
type call struct {
	done    chan struct{}
	val     any
	outcome Outcome
	err     error
	// absent marks a call that resolved without producing a value: a
	// disk-only probe (Get) whose key was on neither tier. Waiters from
	// GetOrCompute re-enter the lookup and run the computation
	// themselves; waiters from Get report a miss.
	absent bool
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

// AttachDisk backs the LRU with a persistent tier: memory misses fall
// through to disk, and computed values are written through. Call
// before serving traffic.
func (c *Cache) AttachDisk(d *Disk) {
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// Disk returns the attached persistent tier (nil when none).
func (c *Cache) Disk() *Disk {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// Prewarm loads up to max entries (0 = capacity) from the disk tier
// into the LRU, verifying checksums as it goes, and returns how many
// were loaded. Corrupt files are quarantined, never loaded.
func (c *Cache) Prewarm(max int) int {
	d := c.Disk()
	if d == nil {
		return 0
	}
	if max <= 0 {
		max = c.capacity
	}
	loaded := 0
	d.Scan(func(key string, val []byte) bool { //nolint:errcheck // dir unreadable = nothing to warm
		c.mu.Lock()
		if _, ok := c.items[key]; !ok && c.bytes+int64(len(val)) <= c.maxBytes {
			c.insertLocked(key, val)
			loaded++
		}
		c.mu.Unlock()
		return loaded < max
	})
	return loaded
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
// namespace (including the disk tier's, when attached). No-op when
// reg is nil.
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
	c.Disk().Bind(reg)
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
	// DiskHit: the value was read (and checksum-verified) from the
	// persistent tier instead of recomputed.
	DiskHit
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
	case DiskHit:
		return "disk"
	}
	return "unknown"
}

// Get returns the cached value for key, if any, marking it recently
// used. A memory miss falls through to the disk tier (the value is
// promoted into the LRU). The fall-through goes through the in-flight
// table: concurrent Gets for the same cold key share one checksummed
// disk read, and a Get racing an in-flight computation waits for it
// instead of reporting a spurious miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if cl.absent || cl.err != nil {
			return nil, false
		}
		return cl.val, true
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	disk := c.disk
	c.mu.Unlock()

	if val, ok := disk.Get(key); ok {
		cl.val, cl.outcome = val, DiskHit
	} else {
		cl.absent = true
		c.misses.Inc()
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if !cl.absent {
		c.insertLocked(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	if cl.absent {
		return nil, false
	}
	return cl.val, true
}

// GetOrCompute returns the value for key, computing it with fn on a
// full miss. Lookup order is memory, then the in-flight table, then
// the disk tier, then fn. Concurrent calls for the same key share one
// disk read or fn invocation: the first caller runs it, the rest block
// until it finishes (Outcome Shared). A successful value is inserted
// into the LRU (and, for computed []byte values, written through to
// disk); an error is returned to every waiter and nothing is cached.
func (c *Cache) GetOrCompute(key string, fn func() (any, error)) (any, Outcome, error) {
	var cl *call
	for cl == nil {
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
			if waiting.absent {
				// The in-flight call was a disk-only probe (Get) that
				// found nothing; it cannot satisfy a compute request.
				// Re-enter the lookup and run the computation.
				continue
			}
			c.shared.Inc()
			return waiting.val, Shared, waiting.err
		}
		cl = &call{done: make(chan struct{}), outcome: Miss}
		c.inflight[key] = cl
		c.mu.Unlock()
	}
	disk := c.Disk()

	if val, ok := disk.Get(key); ok {
		cl.val, cl.outcome = val, DiskHit
	} else {
		cl.val, cl.err = fn()
		c.misses.Inc()
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	if cl.err == nil && cl.outcome == Miss {
		// Write-through: persist freshly computed values so they
		// survive a restart. Failures (e.g. ENOSPC) degrade the disk
		// tier, not the response.
		if b, ok := cl.val.([]byte); ok {
			disk.Put(key, b) //nolint:errcheck // counted in cache/disk_write_errors
		}
	}
	return cl.val, cl.outcome, cl.err
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

// Len returns the number of cached entries in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed size of the values cached in memory.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
