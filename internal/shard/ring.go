// Package shard is the horizontal scale-out fabric: a stateless
// gateway (cmd/reprorouter) that consistent-hash routes analysis
// requests on their content-addressed cache key (serve.CacheKey) to a
// fleet of reproserve shards. Because the key covers every
// report-affecting parameter and strict mode makes all backends
// bit-identical, the same analysis always lands on the same shard —
// each shard's cache holds a disjoint slice of the keyspace, so fleet
// cache capacity scales with the number of shards instead of
// duplicating the hottest entries everywhere.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. Key->shard
//     mapping is deterministic, and adding or removing one shard moves
//     only ~1/N of the keyspace.
//   - flightGroup: distributed singleflight. Concurrent identical
//     requests through the router collapse into ONE upstream call per
//     key — the fleet runs one engine computation where N naive
//     proxies would run N.
//   - monitor: active /healthz polling with passive failure detection
//     and jittered re-probe backoff. Draining shards (503) leave the
//     ring gracefully, reusing the serve layer's drain semantics.
//   - hotTracker: keys whose request rate crosses a threshold fan out
//     to R ring successors, round-robin, trading the cache-capacity
//     win for hot-spot headroom on exactly the keys that need it.
//
// DESIGN.md section 14 describes the architecture and failure model.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-shard virtual-node count of the
// router's ring. 128 points per shard keeps the expected
// keyspace imbalance within a few percent for small fleets while the
// ring stays tiny (N*128 points, binary-searched).
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring with virtual nodes. All methods are
// safe for concurrent use; lookups are lock-cheap (RLock + binary
// search) because the serving path hits the ring on every request.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]bool
	points []point // sorted by hash
}

type point struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// shard (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hashOf is the ring's hash: FNV-1a 64 with a murmur-style finalizer.
// Keys are already SHA-256 hex from serve.CacheKey, so the hash only
// needs to spread, not resist adversaries — but the virtual-node
// labels ("shard#17") are short and near-identical, and raw FNV's weak
// high-bit avalanche on such inputs clusters ring points badly enough
// to skew shard shares 2x. The finalizer restores uniformity for a few
// shifts and multiplies.
func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never errors
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a shard's virtual nodes (no-op if already present) and
// reports whether the ring changed.
func (r *Ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashOf(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return true
}

// Remove deletes a shard's virtual nodes and reports whether the ring
// changed. Keys owned by the removed shard redistribute to their next
// clockwise survivors; every other key keeps its shard.
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Lookup returns the shard owning key (ok false on an empty ring).
func (r *Ring) Lookup(key string) (string, bool) {
	nodes := r.LookupN(key, 1)
	if len(nodes) == 0 {
		return "", false
	}
	return nodes[0], true
}

// LookupN returns up to n distinct shards for key, in ring order: the
// owner first, then the successors a failed request retries (and the
// replica set hot keys fan out over). Deterministic in the ring state.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashOf(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Nodes returns the member shards, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of member shards.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
