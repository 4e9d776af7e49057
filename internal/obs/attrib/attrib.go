// Package attrib is the per-request resource-attribution layer: it
// answers "what did this request cost", where the trace layer (package
// obs/trace) answers "where did its time go". A Usage record
// accumulates CPU nanoseconds, matrix cells, allocations, cache bytes
// and queue wait for one request; the serving layer ships it to the
// client as Report.Usage and X-Resource-* headers, and cmd/reprostat
// reconciles the sum of all attributed CPU against process CPU to
// prove the accounting is honest.
//
// CPU attribution model: every goroutine that computes on behalf of a
// request — the sequential driver, each parallel worker, each cluster
// slave worker thread — pins itself to its OS thread and samples
// CLOCK_THREAD_CPUTIME_ID around its work. While a goroutine holds its
// thread, the thread's CPU clock advances only for that goroutine, so
// the delta is exactly the request's compute, independent of how many
// other requests run concurrently. Cluster slaves ship their deltas
// back to the master inside msgResult, so attribution crosses process
// boundaries the same way spans do.
//
// Allocation attribution reads the global heap-allocation counter
// (runtime/metrics) around the engine run. Unlike thread CPU it is not
// isolated per goroutine: under concurrent load it over-counts by
// whatever neighbours allocate in the window. The warm kernels are
// zero-allocation (DESIGN.md section 10), so in practice the figure is
// dominated by the request's own report encoding; treat it as an upper
// bound, not a measurement.
//
// Everything follows the obs conventions: nil receivers are safe, hot
// paths pay one nil check when attribution is off.
package attrib

import "runtime"

// Usage is the resource-attribution record of one request. All fields
// are totals over the request's lifetime. It marshals into
// repro.Report, so field names are part of the serving API.
type Usage struct {
	// CPUNanos is thread CPU time attributed to the request's compute
	// goroutines (sequential driver + parallel workers + cluster slave
	// workers, local or remote).
	CPUNanos int64 `json:"cpu_ns"`
	// QueueWaitNanos is time spent in the admission queue.
	QueueWaitNanos int64 `json:"queue_wait_ns,omitempty"`
	// Cells is the number of alignment-matrix cells computed.
	Cells int64 `json:"cells"`
	// Alignments is the number of score-only matrix computations.
	Alignments int64 `json:"alignments"`
	// AllocBytes is the heap allocated during the engine run (global
	// delta; see the package comment for the concurrency caveat).
	AllocBytes int64 `json:"alloc_bytes"`
	// CacheBytesRead and CacheBytesWritten count pre-encoded report
	// bytes moved through the result cache for this request.
	CacheBytesRead    int64 `json:"cache_bytes_read,omitempty"`
	CacheBytesWritten int64 `json:"cache_bytes_written,omitempty"`
	// KernelTiers is the tier mix: alignments served per kernel tier
	// name, plus "rerun" for saturation re-runs — an int16 group re-run in
	// int32, a byte window pass finished in int16 (those alignments are
	// counted under both the tier that served them and "rerun" — the
	// re-run is extra work, not a different serving tier).
	KernelTiers map[string]int64 `json:"kernel_tiers,omitempty"`
}

// Add folds another usage record into u (nil-safe on both sides).
func (u *Usage) Add(o *Usage) {
	if u == nil || o == nil {
		return
	}
	u.CPUNanos += o.CPUNanos
	u.QueueWaitNanos += o.QueueWaitNanos
	u.Cells += o.Cells
	u.Alignments += o.Alignments
	u.AllocBytes += o.AllocBytes
	u.CacheBytesRead += o.CacheBytesRead
	u.CacheBytesWritten += o.CacheBytesWritten
	for k, v := range o.KernelTiers {
		if u.KernelTiers == nil {
			u.KernelTiers = make(map[string]int64, len(o.KernelTiers))
		}
		u.KernelTiers[k] += v
	}
}

// Stopwatch measures one goroutine's thread CPU between Start and
// Stop. Start pins the goroutine to its OS thread (the thread CPU
// clock is only meaningful while the goroutine cannot migrate) and
// Stop unpins it. Use one Stopwatch per goroutine; zero value ready.
type Stopwatch struct {
	t0      int64
	running bool
}

// Start pins the calling goroutine to its thread and samples the
// thread CPU clock. Calling Start twice without Stop is a no-op.
func (w *Stopwatch) Start() {
	if w == nil || w.running {
		return
	}
	runtime.LockOSThread()
	w.t0 = threadCPUNanos()
	w.running = true
}

// Stop unpins the goroutine and returns the CPU consumed since Start
// (0 when not running, or on platforms without a thread CPU clock).
func (w *Stopwatch) Stop() int64 {
	if w == nil || !w.running {
		return 0
	}
	d := threadCPUNanos() - w.t0
	runtime.UnlockOSThread()
	w.running = false
	if d < 0 {
		return 0
	}
	return d
}

// ThreadCPUSupported reports whether this platform attributes
// per-thread CPU (false means every Stopwatch delta is 0 and
// reconciliation against process CPU is meaningless).
func ThreadCPUSupported() bool { return threadCPUSupported }
