// Package stats provides instrumentation counters for the alignment
// engine. The counters back the paper's percentage claims: realignments
// avoided by the queue heuristic (Section 3, 90-97%), speculation
// overhead of SIMD-style group scheduling (Section 5.1, <0.70%) and of
// the parallel schedulers (Section 5.2, up to 8.4%: extra alignments, and
// spec_waste, the results that came back for a superseded triangle).
// They are the "how many" of the three instruments (DESIGN.md section 8);
// per-request usage (obs/attrib) is derived from a Snapshot, not counted
// again.
//
// The counters are built on the primitives of package obs, so a
// Counters can be bound into an obs.Registry (Bind) and served live
// from the /metrics debug endpoint alongside cluster telemetry.
//
// All methods are safe on a nil receiver, so hot paths can thread an
// optional *Counters without branching at call sites.
package stats

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// NumTiers is the size of the per-tier alignment counter array. It
// must cover every align.Tier ordinal, the byte rung included; stats
// cannot import the kernel packages (they thread *Counters through their
// scratches), so the engine asserts the correspondence in a test.
const NumTiers = 4

// TierNames maps tier ordinals to the exposition names used in
// per-tier counters and Usage.KernelTiers. Index i is
// align.Tier(i).String().
var TierNames = [NumTiers]string{"scalar", "int32x8", "int16x16", "u8x32"}

// Counters accumulates engine activity. Safe for concurrent use; the
// zero value is ready.
type Counters struct {
	alignments   obs.Counter // score-only matrix computations
	cells        obs.Counter // matrix entries: score passes, plus each traced rectangle whole
	realignments obs.Counter // alignments beyond each task's first
	tracebacks   obs.Counter // accepted alignments traced back
	shadowEnds   obs.Counter // bottom-row cells rejected as shadows
	specWaste    obs.Counter // scheduler results computed against a triangle since superseded
	alignNanos   obs.Histogram

	cpuNanos    obs.Counter           // thread CPU attributed to compute goroutines
	tierAlign   [NumTiers]obs.Counter // alignments served per kernel tier
	tierRerun   obs.Counter           // saturation re-runs (a narrow pass finished one rung wider)
	wastedCells obs.Counter           // cells a saturated pass threw away
}

// Bind registers every counter in reg under the engine/ namespace, so
// a registry snapshot reads the live values. No-op when either side is
// nil.
func (c *Counters) Bind(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.BindCounter("engine/alignments", &c.alignments)
	reg.BindCounter("engine/cells", &c.cells)
	reg.BindCounter("engine/realignments", &c.realignments)
	reg.BindCounter("engine/tracebacks", &c.tracebacks)
	reg.BindCounter("engine/shadow_ends", &c.shadowEnds)
	reg.BindCounter("engine/spec_waste", &c.specWaste)
	reg.BindHistogram("engine/align_ns", &c.alignNanos)
	reg.BindCounter("engine/cpu_ns", &c.cpuNanos)
	for i := range c.tierAlign {
		reg.BindCounter("engine/alignments_tier/"+TierNames[i], &c.tierAlign[i])
	}
	reg.BindCounter("engine/tier_reruns", &c.tierRerun)
	reg.BindCounter("engine/wasted_cells", &c.wastedCells)
}

// AddAlignment records one score-only alignment over the given number of
// matrix cells; realigned marks alignments beyond the task's first.
func (c *Counters) AddAlignment(cells int64, realigned bool) {
	c.AddAlignments(1, cells, realigned)
}

// AddAlignments records n score-only alignments of one task over cells
// matrix entries in total; realigned marks them all as beyond the task's
// first.
func (c *Counters) AddAlignments(n, cells int64, realigned bool) {
	if c == nil {
		return
	}
	c.alignments.Add(n)
	c.cells.Add(cells)
	if realigned {
		c.realignments.Add(n)
	}
}

// ObserveAlignLatencyPer attributes a task operation's kernel wall time
// d to its members alignments: each member is recorded as one
// observation of d/members, so the histogram's count matches the
// alignment count and the reported mean stays a per-alignment figure
// (the SSW paper's cells-per-second throughput metric is this
// histogram's Sum against the cells counter). members <= 0 records
// nothing.
func (c *Counters) ObserveAlignLatencyPer(d time.Duration, members int) {
	if c == nil || members <= 0 {
		return
	}
	c.alignNanos.ObserveN(d/time.Duration(members), members)
}

// AddCPU attributes measured thread-CPU nanoseconds to the engine.
// Non-positive deltas are dropped.
func (c *Counters) AddCPU(ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	c.cpuNanos.Add(ns)
}

// AddTierAlignments attributes n alignments to kernel tier ordinal
// tier; rerun marks the batch as having needed a re-run after a
// saturation flag — an int16 group re-run in int32, a byte group re-run
// in int16, a byte window pass handed over to int16 at its flagged row —
// counted separately: the
// alignments still belong to the tier that finally served them.
func (c *Counters) AddTierAlignments(tier int, n int64, rerun bool) {
	if c == nil || tier < 0 || tier >= NumTiers || n <= 0 {
		return
	}
	c.tierAlign[tier].Add(n)
	if rerun {
		c.tierRerun.Add(n)
	}
}

// AddWastedCells records cells a saturated pass computed and threw away:
// a byte window pass's flagged row, which the int16 rung computes again,
// or the member cells a flagged byte group had computed before its int16
// re-run. They are not in the cells counter, which counts each
// alignment's matrix once.
func (c *Counters) AddWastedCells(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.wastedCells.Add(n)
}

// AddTraceback records one traceback of an accepted alignment and the
// cells of its rectangle: the logical rectangle, whole, not the cells
// the row blocks recomputed (fewer) nor an accept's own checkpointing
// pass (more), so the count is a function of the tops alone.
func (c *Counters) AddTraceback(cells int64) {
	if c == nil {
		return
	}
	c.tracebacks.Inc()
	c.cells.Add(cells)
}

// AddShadowEnds records bottom-row cells rejected by shadow detection.
func (c *Counters) AddShadowEnds(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.shadowEnds.Add(n)
}

// AddSpecWaste records one task result a concurrent scheduler received
// after the triangle it was computed against had advanced: the paper's
// speculation overhead (Section 5.2). The score still re-enters the
// queue as an upper bound; the count is how often that happened.
func (c *Counters) AddSpecWaste() {
	if c == nil {
		return
	}
	c.specWaste.Inc()
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Alignments   int64
	Cells        int64
	Realignments int64
	Tracebacks   int64
	ShadowEnds   int64
	SpecWaste    int64
	// AlignLatency is the per-alignment wall-time histogram.
	AlignLatency obs.HistogramSnapshot
	// CPUNanos is attributed thread CPU; TierAlignments/TierReruns the
	// kernel-tier mix (see AddTierAlignments); WastedCells what the
	// saturated passes threw away (AddWastedCells).
	CPUNanos       int64
	TierAlignments [NumTiers]int64
	TierReruns     int64
	WastedCells    int64
}

// KernelTiers renders the tier mix as the exposition map used by
// attrib.Usage: nonzero tiers by name, plus "rerun" for saturation
// re-runs. Returns nil when no tier was attributed.
func (s Snapshot) KernelTiers() map[string]int64 {
	var m map[string]int64
	for i, n := range s.TierAlignments {
		if n == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64, NumTiers+1)
		}
		m[TierNames[i]] = n
	}
	if s.TierReruns != 0 {
		if m == nil {
			m = make(map[string]int64, 1)
		}
		m["rerun"] = s.TierReruns
	}
	return m
}

// AddSnapshot folds another set's snapshot into this one. The serving
// layer uses it to accumulate per-run engine work into one registry-
// bound lifetime set, keeping exported engine/ counters monotone across
// requests (see repro.Options.Counters). Nil-safe on the receiver.
func (c *Counters) AddSnapshot(s Snapshot) {
	if c == nil {
		return
	}
	c.alignments.Add(s.Alignments)
	c.cells.Add(s.Cells)
	c.realignments.Add(s.Realignments)
	c.tracebacks.Add(s.Tracebacks)
	c.shadowEnds.Add(s.ShadowEnds)
	c.specWaste.Add(s.SpecWaste)
	c.alignNanos.AddSnapshot(s.AlignLatency)
	c.cpuNanos.Add(s.CPUNanos)
	for i, n := range s.TierAlignments {
		c.tierAlign[i].Add(n)
	}
	c.tierRerun.Add(s.TierReruns)
	c.wastedCells.Add(s.WastedCells)
}

// Snapshot returns the current counter values (zero Snapshot for nil).
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Alignments:   c.alignments.Load(),
		Cells:        c.cells.Load(),
		Realignments: c.realignments.Load(),
		Tracebacks:   c.tracebacks.Load(),
		ShadowEnds:   c.shadowEnds.Load(),
		SpecWaste:    c.specWaste.Load(),
		AlignLatency: c.alignNanos.Snapshot(),
		CPUNanos:     c.cpuNanos.Load(),
		TierReruns:   c.tierRerun.Load(),
		WastedCells:  c.wastedCells.Load(),
	}
	for i := range c.tierAlign {
		s.TierAlignments[i] = c.tierAlign[i].Load()
	}
	return s
}

// RealignmentReduction returns the fraction of potential realignments the
// best-first queue avoided, given the number of splits and top alignments
// found. Without the heuristic, every accepted top alignment would force
// all splits-1 other tasks to realign; the paper reports 90-97% of those
// are avoided.
func (s Snapshot) RealignmentReduction(splits, tops int) float64 {
	if tops <= 1 {
		return 0
	}
	potential := int64(tops-1) * int64(splits)
	if potential == 0 {
		return 0
	}
	return 1 - float64(s.Realignments)/float64(potential)
}

// String formats the snapshot for -stats output.
func (s Snapshot) String() string {
	return fmt.Sprintf("alignments=%d realignments=%d tracebacks=%d cells=%d shadow-ends=%d spec-waste=%d",
		s.Alignments, s.Realignments, s.Tracebacks, s.Cells, s.ShadowEnds, s.SpecWaste)
}
