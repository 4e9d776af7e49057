// Package profile is the always-on continuous profiler: a background
// loop that periodically captures short CPU profiles and heap
// snapshots into a bounded on-disk ring, so the last half hour of
// flame graphs is always available when a latency regression is
// noticed — no "reproduce it with profiling enabled" step.
//
// The overhead budget is set by duty cycle, not sampling rate: each
// cycle profiles CPU for CPUDuration out of Interval (default 2s out
// of 30s, a 6.7% duty cycle of a profiler whose own overhead is a few
// percent — well under 1% net). Heap snapshots are a single
// runtime.GC-free WriteHeapProfile. Captures are written through
// internal/atomicfile so a crash mid-write never leaves a torn
// profile, and the ring deletes oldest-first so disk usage is bounded
// by MaxCaptures.
//
// Because the serving layer runs engines under pprof labels
// (trace_id, backend, kernel_tier, preset — see serve.runEngine),
// every CPU capture can be sliced by request dimension with standard
// tooling: `go tool pprof -tagfocus kernel_tier=int16x16 cpu-42.pb.gz`.
package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

// Config sizes the profiler. The zero value is NOT usable: Dir is
// required; other fields default sensibly.
type Config struct {
	// Dir is the capture directory (created if absent).
	Dir string
	// Interval is the cycle period (0 = 30s).
	Interval time.Duration
	// CPUDuration is the CPU-profile length per cycle (0 = 2s, capped
	// at Interval/2 so the duty cycle stays bounded).
	CPUDuration time.Duration
	// MaxCaptures bounds the ring: the total number of capture files
	// kept, oldest deleted first (0 = 64).
	MaxCaptures int
	// Metrics, when non-nil, receives profiler telemetry:
	// profile/captures, profile/capture_errors, profile/ring_bytes.
	Metrics *obs.Registry
}

// Profiler runs the capture loop. Create with New, start with Start,
// stop with Close. All methods are safe on a nil receiver, so serving
// code can thread an optional *Profiler without branching.
type Profiler struct {
	cfg  Config
	stop chan struct{}
	done chan struct{}

	captures  *obs.Counter
	capErrors *obs.Counter
	ringBytes *obs.Gauge

	mu  sync.Mutex // guards seq and ring mutation
	seq int64
}

// Capture describes one stored profile.
type Capture struct {
	Name  string `json:"name"` // e.g. "cpu-000042.pb.gz"
	Kind  string `json:"kind"` // "cpu" or "heap"
	Seq   int64  `json:"seq"`
	Bytes int64  `json:"bytes"`
	// UnixMS is the capture file's modification time.
	UnixMS int64 `json:"unix_ms"`
}

// New builds a profiler (but does not start it).
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profile: Dir is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 2 * time.Second
	}
	if cfg.CPUDuration > cfg.Interval/2 {
		cfg.CPUDuration = cfg.Interval / 2
	}
	if cfg.MaxCaptures <= 0 {
		cfg.MaxCaptures = 64
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &Profiler{
		cfg:       cfg,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		captures:  cfg.Metrics.Counter("profile/captures"),
		capErrors: cfg.Metrics.Counter("profile/capture_errors"),
		ringBytes: cfg.Metrics.Gauge("profile/ring_bytes"),
	}
	// Resume the sequence after the highest existing capture so a
	// restart keeps appending to the ring instead of overwriting it.
	for _, c := range p.List() {
		if c.Seq > p.seq {
			p.seq = c.Seq
		}
	}
	return p, nil
}

// Start launches the capture loop. The first cycle begins after one
// interval, not immediately, so process startup (cold caches, one-time
// allocation) does not dominate the first capture.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	go p.loop()
}

// Close stops the loop and waits for an in-flight capture to finish.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.CaptureNow()
		}
	}
}

// CaptureNow runs one capture cycle synchronously: a CPU profile of
// CPUDuration, a heap snapshot, then ring trimming. Exported so tests
// and the obs-smoke CI job can force a capture without waiting an
// interval. Errors land in profile/capture_errors (a concurrent
// explicit pprof session makes StartCPUProfile fail; the cycle still
// writes the heap snapshot).
func (p *Profiler) CaptureNow() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()

	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		// Someone else (an operator on /debug/pprof/profile) is
		// profiling; their session wins, ours records the miss.
		p.capErrors.Inc()
	} else {
		select {
		case <-time.After(p.cfg.CPUDuration):
		case <-p.stop:
		}
		pprof.StopCPUProfile()
		p.write(fmt.Sprintf("cpu-%06d.pb.gz", seq), cpu.Bytes())
	}

	var heap bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
		p.capErrors.Inc()
	} else {
		p.write(fmt.Sprintf("heap-%06d.pb.gz", seq), heap.Bytes())
	}
	p.trim()
}

func (p *Profiler) write(name string, data []byte) {
	if err := atomicfile.WriteFile(filepath.Join(p.cfg.Dir, name), data, 0o644); err != nil {
		p.capErrors.Inc()
		return
	}
	p.captures.Inc()
}

// parseCapture decodes "<kind>-<seq>.pb.gz" names; ok=false for
// foreign files, which List and trim leave alone.
func parseCapture(name string) (kind string, seq int64, ok bool) {
	base, found := strings.CutSuffix(name, ".pb.gz")
	if !found {
		return "", 0, false
	}
	kind, num, found := strings.Cut(base, "-")
	if !found || (kind != "cpu" && kind != "heap") {
		return "", 0, false
	}
	seq, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return kind, seq, true
}

// List returns the ring's captures, oldest first.
func (p *Profiler) List() []Capture {
	if p == nil {
		return nil
	}
	ents, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return nil
	}
	out := make([]Capture, 0, len(ents))
	var total int64
	for _, e := range ents {
		kind, seq, ok := parseCapture(e.Name())
		if !ok {
			continue
		}
		c := Capture{Name: e.Name(), Kind: kind, Seq: seq}
		if info, err := e.Info(); err == nil {
			c.Bytes = info.Size()
			c.UnixMS = info.ModTime().UnixMilli()
		}
		total += c.Bytes
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Name < out[j].Name
	})
	p.ringBytes.Set(total)
	return out
}

// Read returns one capture's bytes by name (path-traversal safe: the
// name must parse as a capture).
func (p *Profiler) Read(name string) ([]byte, error) {
	if p == nil {
		return nil, os.ErrNotExist
	}
	if _, _, ok := parseCapture(name); !ok {
		return nil, os.ErrNotExist
	}
	return os.ReadFile(filepath.Join(p.cfg.Dir, name))
}

// trim deletes oldest captures past MaxCaptures.
func (p *Profiler) trim() {
	p.mu.Lock()
	defer p.mu.Unlock()
	caps := p.List()
	for len(caps) > p.cfg.MaxCaptures {
		if err := os.Remove(filepath.Join(p.cfg.Dir, caps[0].Name)); err != nil {
			p.capErrors.Inc()
			return // avoid spinning on an undeletable file
		}
		caps = caps[1:]
	}
}
