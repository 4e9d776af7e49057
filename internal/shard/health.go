package shard

import (
	"context"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// monitor keeps the ring in sync with shard health. Two signals feed
// it:
//
//   - Active probes: every Interval each shard's /healthz is polled.
//     200 joins (or keeps) the shard in the ring; 503 — the serve
//     layer's drain signal — or any failure removes it. A draining
//     shard therefore leaves the ring gracefully: the router stops
//     routing to it while the shard finishes its queued work, exactly
//     the semantics serve.Drain promises load balancers.
//   - Passive detection: the routing path reports transport errors via
//     markDown, which evicts the shard immediately instead of waiting
//     out the probe interval.
//
// Downed shards are re-probed on a jittered exponential backoff
// (base = Interval, doubled per consecutive failure, capped, and
// uniformly jittered in [50%, 150%]) so a dead shard costs a bounded
// probe rate and a restarted fleet does not probe in lockstep.
type monitor struct {
	ring     *Ring
	client   *http.Client
	interval time.Duration
	maxOff   time.Duration
	onChange func(node string, up bool) // optional, for metrics/logs

	mu    sync.Mutex
	state map[string]*probeState
	stop  chan struct{}
	done  chan struct{}
}

type probeState struct {
	up       bool
	fails    int       // consecutive probe failures
	nextAt   time.Time // earliest next probe while down
	draining bool
}

// probeTimeout bounds one /healthz round trip; a shard that cannot
// answer a trivial GET in this window is not fit to take traffic.
const probeTimeout = 2 * time.Second

func newMonitor(ring *Ring, shards []string, client *http.Client, interval time.Duration, onChange func(string, bool)) *monitor {
	if interval <= 0 {
		interval = time.Second
	}
	m := &monitor{
		ring:     ring,
		client:   client,
		interval: interval,
		maxOff:   16 * interval,
		onChange: onChange,
		state:    make(map[string]*probeState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, s := range shards {
		// Shards start optimistically in the ring: the fleet is usually
		// up, and the first probe round (or first failed request) evicts
		// anything that is not.
		m.state[s] = &probeState{up: true}
		ring.Add(s)
	}
	return m
}

// start launches the probe loop; stop with close().
func (m *monitor) start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.probeAll()
			}
		}
	}()
}

func (m *monitor) close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

// probeAll probes every shard due for a probe. Probes run sequentially
// — fleets are small and probeTimeout bounds each — keeping the loop
// trivially race-free with itself.
func (m *monitor) probeAll() {
	m.mu.Lock()
	var due []string
	now := time.Now()
	for s, st := range m.state {
		if st.up || !now.Before(st.nextAt) {
			due = append(due, s)
		}
	}
	m.mu.Unlock()
	for _, s := range due {
		m.probe(s)
	}
}

// probe performs one /healthz round trip and applies the verdict.
func (m *monitor) probe(shard string) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard+"/healthz", nil)
	if err != nil {
		m.setDown(shard, false)
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		m.setDown(shard, false)
		return
	}
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		m.setUp(shard)
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Draining: a deliberate, graceful exit — not a failure, so the
		// backoff clock does not grow, but the shard must stop receiving
		// keys now.
		m.setDown(shard, true)
	default:
		m.setDown(shard, false)
	}
}

func (m *monitor) setUp(shard string) {
	m.mu.Lock()
	st := m.state[shard]
	if st == nil {
		m.mu.Unlock()
		return
	}
	changed := !st.up
	st.up, st.fails, st.draining = true, 0, false
	st.nextAt = time.Time{}
	m.mu.Unlock()
	if changed {
		m.ring.Add(shard)
		if m.onChange != nil {
			m.onChange(shard, true)
		}
	}
}

func (m *monitor) setDown(shard string, draining bool) {
	m.mu.Lock()
	st := m.state[shard]
	if st == nil {
		m.mu.Unlock()
		return
	}
	changed := st.up
	st.up = false
	st.draining = draining
	if !draining {
		st.fails++
	}
	// Jittered exponential re-probe backoff. Draining shards keep the
	// base interval: they come back (restarted) on their own schedule
	// and are cheap to probe meanwhile.
	off := m.interval
	for i := 1; i < st.fails && off < m.maxOff; i++ {
		off *= 2
	}
	if off > m.maxOff {
		off = m.maxOff
	}
	off = off/2 + rand.N(off)
	st.nextAt = time.Now().Add(off)
	m.mu.Unlock()
	if changed {
		m.ring.Remove(shard)
		if m.onChange != nil {
			m.onChange(shard, false)
		}
	}
}

// markDown is the passive path: the router observed a transport error
// talking to shard. Evict immediately; the probe loop re-admits it
// when it answers /healthz again.
func (m *monitor) markDown(shard string) {
	m.setDown(shard, false)
}
