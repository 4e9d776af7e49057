// Package dessim is a discrete-event simulator of the paper's
// master/slave cluster (Section 4.3), used to regenerate Figure 8 —
// speed improvement versus number of processors for different top
// alignment counts.
//
// The measurement host for this reproduction has a single CPU, so the
// 64-node dual-Pentium-III Myrinet cluster cannot be timed directly
// (see DESIGN.md's substitution table). Instead, a real sequential run
// of the new algorithm is *recorded* — which splits are realigned
// between consecutive top alignments, and how many matrix cells each
// alignment and traceback costs — and the recorded workload is replayed
// under a cluster cost model: per-worker SIMD-accelerated alignment
// throughput, a sacrificed master with per-message service time, link
// latency, bandwidth-limited original-row transfers with per-slave
// caching, and the sequential traceback on the master.
//
// The simulator replays rounds strictly (all realignments between two
// acceptances finish before the traceback), matching the paper's
// observation that parallelism between acceptances is limited to the
// 3-10% of matrices that need realignment — the effect that bends the
// Figure 8 curves down as the number of top alignments grows.
package dessim

import (
	"fmt"

	"repro/internal/topalign"
)

// Task is one recorded alignment work item.
type Task struct {
	R     int   // split
	Cells int64 // matrix entries the alignment computes
}

// Round is the work between two accepted top alignments: the
// realignments that actually happened (for round 0, the initial
// alignment of every split), followed by the acceptance traceback.
type Round struct {
	Tasks          []Task
	TracebackCells int64 // 0 when the trace ended without an acceptance
}

// Trace is a recorded sequential run.
type Trace struct {
	M      int // sequence length
	Rounds []Round
}

// Tops returns the number of accepted top alignments in the trace.
func (t *Trace) Tops() int {
	n := 0
	for _, r := range t.Rounds {
		if r.TracebackCells > 0 {
			n++
		}
	}
	return n
}

// AlignCells sums the alignment cells of the first `tops` rounds.
func (t *Trace) AlignCells(tops int) int64 {
	var total int64
	for i := 0; i < tops && i < len(t.Rounds); i++ {
		for _, task := range t.Rounds[i].Tasks {
			total += task.Cells
		}
	}
	return total
}

// Record runs the sequential algorithm on s — an ordinary topalign.Find
// — and rebuilds its workload from the engine's OnRealign callback and
// the result: every realignment is a task of the round numbered by the
// tops accepted when it ran, and top i closes round i with the traceback
// of its split. The configuration is forced to scalar task granularity
// (GroupLanes 1) so each recorded task is one split; cfg.OnRealign is
// replaced.
func Record(s []byte, cfg topalign.Config) (*Trace, error) {
	cfg.GroupLanes = 1
	m := len(s)
	cells := func(r int) int64 { return int64(r) * int64(m-r) }
	tr := &Trace{M: m, Rounds: []Round{{}}}
	round := func(i int) *Round {
		for len(tr.Rounds) <= i {
			tr.Rounds = append(tr.Rounds, Round{})
		}
		return &tr.Rounds[i]
	}
	cfg.OnRealign = func(t *topalign.Task, tops int) {
		rd := round(tops)
		rd.Tasks = append(rd.Tasks, Task{R: t.R, Cells: cells(t.R)})
	}
	res, err := topalign.Find(s, cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Tops) == 0 {
		return nil, fmt.Errorf("dessim: recorded run found no top alignments")
	}
	for i, top := range res.Tops {
		round(i).TracebackCells = cells(top.Split)
	}
	return tr, nil
}

// Model is the cluster cost model. The defaults are calibrated to the
// paper's hardware (Section 5): a 1 GHz Pentium III computing on the
// order of 150M matrix cells/s conventionally and >1G cells/s with SSE
// (SimdFactor 6.8, the measured whole-run improvement), Myrinet-class
// latency, and a master service time small enough that 64 KB/s per
// slave never bottlenecks.
type Model struct {
	// ScalarCellsPerSec is single-CPU conventional kernel throughput.
	ScalarCellsPerSec float64
	// SimdFactor multiplies worker throughput (the SSE speedup).
	SimdFactor float64
	// MasterServiceSec is the master's per-message handling time.
	MasterServiceSec float64
	// LatencySec is the one-way network latency.
	LatencySec float64
	// BandwidthBytesPerSec limits original-row transfers.
	BandwidthBytesPerSec float64
}

// PaperModel returns the cost model calibrated to the paper's testbed.
func PaperModel() Model {
	return Model{
		ScalarCellsPerSec:    155e6,
		SimdFactor:           6.8,
		MasterServiceSec:     5e-6,
		LatencySec:           10e-6,
		BandwidthBytesPerSec: 200e6,
	}
}

// Validate rejects non-positive model parameters.
func (m Model) Validate() error {
	if m.ScalarCellsPerSec <= 0 || m.SimdFactor <= 0 ||
		m.MasterServiceSec < 0 || m.LatencySec < 0 || m.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("dessim: invalid model %+v", m)
	}
	return nil
}

// Result is one simulated configuration.
type Result struct {
	Procs       int
	Tops        int
	WallSeconds float64
	// SeqSeconds is the conventional (non-SIMD) sequential time for the
	// same work: the Figure 8 baseline.
	SeqSeconds float64
	// Speedup is SeqSeconds / WallSeconds.
	Speedup float64
	// RowBytes is the total original-row traffic moved over the network.
	RowBytes int64
}

// Simulate replays the first `tops` acceptances of the trace on `procs`
// processors under the model. procs == 1 models the plain sequential
// SIMD run (no master); procs >= 2 models 1 sacrificed master plus
// procs-1 SIMD workers.
func Simulate(tr *Trace, model Model, procs, tops int) (Result, error) {
	if err := model.Validate(); err != nil {
		return Result{}, err
	}
	if procs < 1 {
		return Result{}, fmt.Errorf("dessim: procs %d must be >= 1", procs)
	}
	if tops < 1 || tops > tr.Tops() {
		return Result{}, fmt.Errorf("dessim: tops %d outside trace's 1..%d", tops, tr.Tops())
	}
	res := Result{Procs: procs, Tops: tops}

	// Sequential conventional baseline over the same rounds.
	var seqCells, tbCells int64
	rounds := 0
	for _, rd := range tr.Rounds {
		if rounds == tops {
			break
		}
		for _, task := range rd.Tasks {
			seqCells += task.Cells
		}
		tbCells += rd.TracebackCells
		if rd.TracebackCells > 0 {
			rounds++
		}
	}
	res.SeqSeconds = float64(seqCells+tbCells) / model.ScalarCellsPerSec

	workerRate := model.ScalarCellsPerSec * model.SimdFactor
	if procs == 1 {
		res.WallSeconds = float64(seqCells)/workerRate + float64(tbCells)/model.ScalarCellsPerSec
		res.Speedup = res.SeqSeconds / res.WallSeconds
		return res, nil
	}

	workers := procs - 1
	rowSeen := make([]map[int]bool, workers)
	for i := range rowSeen {
		rowSeen[i] = make(map[int]bool)
	}
	var masterFree float64

	// per-worker next event: a work request (round start or piggybacked
	// on a result message) or a result arrival
	const (
		evRequest = iota
		evResult
		evDone
	)
	kind := make([]int, workers)
	when := make([]float64, workers)

	// assign hands the next pending task to worker w at master time
	// masterFree; returns the result arrival time.
	assign := func(w int, task Task) float64 {
		start := masterFree + model.LatencySec
		dur := float64(task.Cells) / workerRate
		if !rowSeen[w][task.R] {
			// the original bottom row crosses the network once per
			// (slave, split): uploaded after a first alignment, fetched
			// before a realignment
			rowSeen[w][task.R] = true
			rowBytes := int64(4 * (tr.M - task.R))
			dur += 2*model.LatencySec + float64(rowBytes)/model.BandwidthBytesPerSec
			res.RowBytes += rowBytes
		}
		return start + dur + model.LatencySec
	}

	rounds = 0
	for _, rd := range tr.Rounds {
		if rounds == tops {
			break
		}
		for w := 0; w < workers; w++ {
			kind[w] = evRequest
			when[w] = masterFree // all workers idle at round start
		}
		next := 0
		roundEnd := masterFree
		for {
			// earliest live event
			w := -1
			for i := 0; i < workers; i++ {
				if kind[i] != evDone && (w < 0 || when[i] < when[w]) {
					w = i
				}
			}
			if w < 0 {
				break
			}
			// the master serialises all message handling
			masterFree = maxF(masterFree, when[w]) + model.MasterServiceSec
			if kind[w] == evResult {
				roundEnd = masterFree
			}
			if next < len(rd.Tasks) {
				when[w] = assign(w, rd.Tasks[next])
				kind[w] = evResult
				next++
			} else {
				kind[w] = evDone
			}
		}
		if rd.TracebackCells > 0 {
			// sequential traceback on the master, then the triangle
			// update broadcast to every slave
			masterFree = maxF(masterFree, roundEnd) +
				float64(rd.TracebackCells)/model.ScalarCellsPerSec +
				float64(workers)*model.MasterServiceSec
			rounds++
		} else {
			masterFree = maxF(masterFree, roundEnd)
		}
	}
	res.WallSeconds = masterFree
	res.Speedup = res.SeqSeconds / res.WallSeconds
	return res, nil
}

// Sweep simulates every (procs, tops) combination, e.g. the Figure 8
// grid.
func Sweep(tr *Trace, model Model, procs []int, tops []int) ([]Result, error) {
	var out []Result
	for _, tp := range tops {
		for _, p := range procs {
			r, err := Simulate(tr, model, p, tp)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
