// Package topalign implements the paper's primary contribution: the
// O(n^3) sequential algorithm for computing nonoverlapping top
// alignments (Section 3 and Appendix A), around three ideas:
//
//   - overriding zeros: residue pairs already part of a top alignment are
//     recorded in an override triangle and force matrix entries to zero
//     during realignment, so new alignments cannot reuse them;
//   - a best-first task queue: a split's score from an older triangle is
//     an upper bound under the current one, so realignments are ordered
//     by stale score and most never happen (typically 90-97% avoided);
//   - shadow rejection: each split's bottom row from its first (unmasked)
//     alignment is stored; a realignment ending whose value differs was
//     artificially rerouted around an existing alignment and is invalid.
//
// The package provides the sequential driver (Find) and an Engine with
// the single-task operations the shared-memory and distributed
// schedulers in packages parallel and cluster are built from.
package topalign

import (
	"fmt"
	"math"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/obs/trace"
	"repro/internal/seq"
	"repro/internal/stats"
)

// Infinity is the initial task score: every split must be aligned once
// before it can possibly be accepted (Figure 5 initialises all scores to
// infinity).
const Infinity = int32(math.MaxInt32)

// Pair is a matched residue pair of a top alignment, in global sequence
// positions (1-based, I < J).
type Pair struct {
	I, J int
}

// TopAlignment is one accepted nonoverlapping top alignment.
type TopAlignment struct {
	Index int    // 1-based acceptance order
	Split int    // the split r whose matrix produced the alignment
	Score int32  // alignment score
	Pairs []Pair // matched global position pairs, path order
}

// Overlaps reports whether two top alignments share a matched pair.
func (t TopAlignment) Overlaps(o TopAlignment) bool {
	set := make(map[Pair]bool, len(t.Pairs))
	for _, p := range t.Pairs {
		set[p] = true
	}
	for _, p := range o.Pairs {
		if set[p] {
			return true
		}
	}
	return false
}

// Config controls a top-alignment computation.
type Config struct {
	// Params is the scoring model (exchange matrix + affine gaps).
	Params align.Params
	// NumTops is the number of top alignments requested (the paper
	// typically uses 10-50). Fewer may be returned if scores dry up.
	NumTops int
	// MinScore stops the search once no remaining alignment can reach
	// it. Zero means 1 (any positive-scoring alignment qualifies).
	MinScore int32
	// GroupLanes selects the SIMD-style neighbour-group scheduling of
	// Section 4.1: 0 lets the engine choose (ResolveLanes); 1 aligns one
	// matrix per task; 4, 8, 16 or 32 align a fixed group of neighbouring
	// matrices per task using the group kernels (16 enables the int16x16
	// AVX2 tier where supported, 32 the u8x32 byte tier). Engine.Config
	// reports the resolved value, never 0; a cluster master ships it to
	// its slaves.
	GroupLanes int
	// Counters receives instrumentation; may be nil.
	Counters *stats.Counters
	// OnRealign, when non-nil, is called at the end of every
	// Engine.Realign with the task (score and stamp already updated) and
	// the number of accepted tops the caller aligned against, so a run's
	// workload can be recorded and replayed (package dessim). It runs on
	// the realigning goroutine: under a concurrent scheduler it must be
	// safe to call concurrently, like Realign itself.
	OnRealign func(t *Task, tops int)
	// Spans, when non-nil, records request-scoped trace spans: one
	// engine.accept span per accepted top alignment (with an
	// engine.accept.pass child when the accept runs its own
	// checkpointing pass), parented under SpanParent and stamped with
	// SpanRank. Bounded by NumTops, so a traced run adds no per-task
	// recording cost. Whoever sets Spans
	// sets SpanRank too (-1 local/server, 0 cluster master).
	Spans      *trace.Recorder
	SpanParent trace.SpanID
	SpanRank   int32
}

// withDefaults validates and normalises a Config for a sequence of n
// residues.
func (c Config) withDefaults(n int) (Config, error) {
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.NumTops < 1 {
		return c, fmt.Errorf("topalign: NumTops %d must be at least 1", c.NumTops)
	}
	if c.MinScore <= 0 {
		c.MinScore = 1
	}
	switch c.GroupLanes {
	case 0, 1, 4, 8, 16, 32:
	default:
		return c, fmt.Errorf("topalign: GroupLanes %d must be 0, 1, 4, 8, 16, or 32", c.GroupLanes)
	}
	c.GroupLanes = ResolveLanes(c.Params, n, c.GroupLanes)
	return c, nil
}

// groupCrossover is the sequence length below which a defaulted lane
// count resolves to 1. A group task realigns all its members when one
// is stale, so groups compute more cells than splits (on titin 2.1x at
// n=250 with 16 lanes and 3.1x with 32, 1.8x and 2.5x at 300, 1.3x and
// 1.5x at 900), and align's row kernel runs one matrix 16 columns per
// instruction, so one split at a time is the fast way for short inputs.
// On the titin input 32-lane byte groups lose to it at n=160 and draw
// at 120 and 200 (PAM250 titin wins from 160); both protein inputs win
// from 250 (by 14% and 1.7x), and by 1.7x at 300. 16-lane groups win on
// every input from 160. The sweep is in EXPERIMENTS.md ("Lane
// resolution"); BenchmarkAnalyzeLanes re-derives it.
const groupCrossover = 250

// byteGroupMaxLen is the longest sequence a defaulted lane count resolves
// to 32-lane byte groups for. Scores grow with length, and so does the
// share of groups whose byte pass reaches the top of the byte range and
// re-runs on the int16 rung: on both protein inputs of
// BenchmarkAnalyzeLanes 32 lanes are level with 16 or up to 23% ahead
// from 250 to 1 500 residues, and 25-37% behind at 2 000 (PAM250 40%
// behind at 1 750).
const byteGroupMaxLen = 1500

// ResolveLanes is the lane count a run of n residues under p uses when
// asked for lanes: an explicit 1, 4, 8, 16 or 32 is kept; 0 means
// "choose". Below groupCrossover that is 1. From there to
// byteGroupMaxLen a protein model the byte rung serves
// (multialign.TierFor grants u8x32 to 32 lanes) gets 32. Nucleotide
// models never do: their tandem repeats score past the byte range within
// a few hundred residues (45% of dna-unit group alignments re-run at
// n=300, 96% at 600), and 32 lanes lost to 16 by 17-55% from n=300 on
// under dna-unit and by 13-51% from 600 on under paper-dna. Otherwise it is the widest exact kernel
// tier that can serve the model — 16 when multialign.TierFor grants
// int16x16 to 16 lanes, 8 when only int32x8, 1 when the active tier is
// scalar. Never 4: four lanes reach no vector kernel. Reports are
// bit-identical across lane counts in strict mode, so the choice is an
// execution detail.
func ResolveLanes(p align.Params, n, lanes int) int {
	if lanes != 0 {
		return lanes
	}
	if n < groupCrossover {
		return 1
	}
	if n <= byteGroupMaxLen && p.Exch.Alphabet() != seq.DNA && multialign.TierFor(p, n, 32) == multialign.TierU8x32 {
		return 32
	}
	switch multialign.TierFor(p, n, 16) {
	case multialign.TierInt16x16:
		return 16
	case multialign.TierInt32x8:
		return 8
	}
	return 1
}

// Result is the outcome of a run.
type Result struct {
	SeqLen int
	Tops   []TopAlignment
	Stats  stats.Snapshot
}

// Result reports the engine's accepted top alignments and a snapshot of
// its counters: what every driver returns when its run is over.
func (e *Engine) Result() *Result {
	return &Result{SeqLen: len(e.s), Tops: e.tops, Stats: e.cfg.Counters.Snapshot()}
}
