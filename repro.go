// Package repro finds internal repeats in biological sequences.
//
// It is a from-scratch Go reproduction of the system described in
// "A Million-Fold Speed Improvement in Genomic Repeats Detection"
// (Romein, Heringa, Bal; SC 2003): the O(n^3) nonoverlapping
// top-alignment algorithm that replaced the original Repro method's
// O(n^4) computation, its three levels of parallelism, and the repeat
// delineation the top alignments feed.
//
// Basic use:
//
//	report, err := repro.Analyze("titin", sequence, repro.Options{NumTops: 25})
//	for _, top := range report.Tops { ... }
//	for _, fam := range report.Families { ... }
//
// Options select the execution engine: shared-memory workers in strict
// mode (default: one worker plus one per core no other analysis of the
// process holds, on inputs over ~465 residues; Workers > 1 for a fixed
// count), or an in-process master/slave cluster (Slaves > 0) that
// exercises the same protocol as the repromaster/reproworker binaries.
// One worker is the sequential best-first loop. Tops and families are
// the sequential loop's whatever the engine; with more than one worker
// the work counters in Stats vary by a few percent from run to run.
package repro

import (
	"fmt"
	"io"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/multialign"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/parallel"
	"repro/internal/repeats"
	"repro/internal/scoring"
	"repro/internal/seedindex"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// DefaultNumTops is the number of top alignments computed when Options
// leaves NumTops zero. The paper: "typically 10-30, some more for large
// sequences".
const DefaultNumTops = 20

// Options configures an analysis. The zero value gives a strict
// shared-memory protein analysis with BLOSUM62, affine gaps 10+k, and
// DefaultNumTops top alignments.
type Options struct {
	// Matrix names the exchange matrix: "BLOSUM62" (default), "PAM250",
	// "dna-unit", or "paper-dna". The matrix determines the alphabet.
	Matrix string
	// GapOpen and GapExt define the affine gap cost Open + k*Ext.
	// Both zero selects the matrix's conventional defaults.
	GapOpen, GapExt int
	// NumTops is the number of top alignments to compute (0 = default).
	NumTops int
	// MinScore stops the search when no remaining alignment reaches it.
	MinScore int
	// Lanes is how many neighbouring matrices one task aligns together:
	// 0 (default) lets the engine choose the widest exact kernel tier
	// the CPU and scoring model support (16, 8, or 1 for short inputs
	// and CPUs without AVX2), 1 pins the scalar kernel, 4, 8 and 16 pin
	// a group size. Strict-mode reports are identical whatever the
	// value; Stats.Lanes and Stats.KernelTier say what a run used.
	Lanes int
	// Workers sizes the shared-memory scheduler that runs exact
	// analyses: 0 (default) runs one worker plus one per core no other
	// engine goroutine of the process holds, the extra workers only on
	// inputs over ~465 residues and each giving its core up when later
	// analyses need it; 1 runs the sequential loop on one core; N > 1
	// runs N workers.
	Workers int
	// Slaves > 0 runs an in-process master/slave cluster instead, with
	// ThreadsPerSlave workers per slave.
	Slaves          int
	ThreadsPerSlave int
	// Speculative selects the paper's speculative acceptance rule for
	// the parallel engines (slightly more work, possibly different
	// acceptance order among equal-scoring alignments). Off = strict,
	// bit-identical to sequential.
	Speculative bool
	// MinPairs filters top alignments during delineation (0 = default).
	MinPairs int
	// Preset selects the seed-filter-extend prefilter for long inputs
	// (see internal/seedindex and DESIGN.md §13): "" runs the exact
	// engine; "sensitive" also runs the exact engine (bit-identical by
	// construction) but adds prefilter telemetry to the report; "fast"
	// and "balanced" restrict alignment to seed-supported candidate
	// windows, trading sensitivity for orders-of-magnitude less work.
	// Fast and balanced run the windowed driver whatever Workers and
	// Slaves say: one best-first loop, with the windows' first
	// alignments computed ahead of it on the cores no other engine
	// goroutine of the process holds, so their results and work counters
	// are deterministic and backend-independent; those knobs select the
	// backend only for the exact presets.
	Preset string
	// SeedK, SeedMask, SeedMaxOcc, SeedBand and SeedPad override
	// individual prefilter knobs (zero value = preset default): seed
	// length, spaced-seed mask over {0,1}, per-seed occurrence cap,
	// diagonal band width, and window padding.
	SeedK      int
	SeedMask   string
	SeedMaxOcc int
	SeedBand   int
	SeedPad    int
	// Metrics, when non-nil, receives live telemetry: the engine
	// counters (bound under engine/) and, for cluster runs, per-rank
	// dispatch counters and row-fetch latencies. See DESIGN.md §8.
	Metrics *obs.Registry
	// Counters, when non-nil, receives this run's engine work folded
	// into a caller-owned cumulative set after the run completes.
	// Long-lived callers (the serving layer) bind one set to their
	// registry once and pass it for every run, keeping the exported
	// engine/ counters cumulative — per-run Bind would rebind fresh
	// counters each time and reset the exported values to the latest
	// run only. Report.Stats and Report.Usage stay per-run regardless.
	Counters *stats.Counters
	// Spans, when non-nil, records request-scoped trace spans: an
	// engine span wrapping the top-alignment computation, with
	// engine/cluster/worker child spans beneath it (see
	// internal/obs/trace). SpanParent, when non-zero, parents the
	// engine span — the serving layer passes its request span here.
	Spans      *trace.Recorder
	SpanParent trace.SpanID
}

// Pair is a matched residue pair (global 1-based positions, I < J).
type Pair struct {
	I, J int
}

// TopAlignment is one nonoverlapping top alignment.
type TopAlignment struct {
	Index int // acceptance order, 1-based
	Split int // the prefix/suffix split whose matrix produced it
	Score int
	Pairs []Pair
}

// RepeatCopy is one copy of a repeat, inclusive 1-based positions.
type RepeatCopy struct {
	Start, End int
}

// RepeatFamily groups the copies of one repeat.
type RepeatFamily struct {
	Copies  []RepeatCopy
	Support int   // top alignments supporting the family
	Score   int64 // summed alignment scores
	UnitLen int   // median copy length
	// Consensus is the per-column majority residue across copies
	// (empty for single-copy families); Conservation is the mean
	// fraction of copies agreeing with it.
	Consensus    string
	Conservation float64
}

// Stats summarises the engine work performed.
type Stats struct {
	Alignments   int64
	Realignments int64
	Tracebacks   int64
	Cells        int64
	ShadowEnds   int64
	// RealignmentReduction is the fraction of potential realignments the
	// best-first queue avoided (the paper reports 0.90-0.97).
	RealignmentReduction float64
	// Lanes is the lane count the run used — Options.Lanes with 0
	// resolved — and KernelTier the kernel tier that lane count and the
	// scoring model select on the group and row ladder ("scalar",
	// "int32x8", or "int16x16"). Individual alignments can still run
	// narrower (int16 saturation re-runs a group in int32, a matrix under
	// 16 columns wide takes the Go row), and the fast and balanced
	// presets run window passes on the byte rung in front of int16x16;
	// Usage.KernelTiers counts what each alignment ran ("u8x32" for the
	// byte rung).
	Lanes      int    `json:"Lanes,omitempty"`
	KernelTier string `json:"KernelTier,omitempty"`
}

// PrefilterInfo reports the resolved seed-filter-extend configuration
// and what each stage did. It is present only when Options.Preset was
// set.
type PrefilterInfo struct {
	Preset    string `json:"preset"`
	K         int    `json:"k"`
	Mask      string `json:"mask,omitempty"`
	MaxOcc    int    `json:"max_occ"`
	BandWidth int    `json:"band_width"`
	Pad       int    `json:"pad"`
	// Stage counts: distinct seeds kept / dropped by the occurrence
	// cap, indexed occurrences, seed match pairs, merged diagonal
	// segments, chained clusters, and candidate windows extended.
	Kmers        int `json:"kmers"`
	DroppedKmers int `json:"dropped_kmers"`
	Positions    int `json:"positions"`
	Pairs        int `json:"pairs"`
	Segments     int `json:"segments"`
	Clusters     int `json:"clusters"`
	Candidates   int `json:"candidates"`
	// WindowCells is the total candidate window area; SequenceCells is
	// n(n-1)/2, the exact engine's pair space — their ratio is the
	// fraction of the problem the prefilter kept.
	WindowCells   int64 `json:"window_cells"`
	SequenceCells int64 `json:"sequence_cells"`
}

// Report is the result of one analysis.
type Report struct {
	SeqID string
	// Residues is the analysed sequence (normalised to the alphabet's
	// canonical letters), so reports are self-contained for rendering
	// with FormatAlignment.
	Residues string
	SeqLen   int
	Tops     []TopAlignment
	Families []RepeatFamily
	Stats    Stats
	// Prefilter is set when a seed-filter-extend preset was requested.
	Prefilter *PrefilterInfo `json:"Prefilter,omitempty"`
	// Usage is the resource-attribution record: thread CPU spent by the
	// compute goroutines (including cluster slaves, local or remote),
	// cells, kernel-tier mix, and the heap-allocation delta of the run.
	// The serving layer extends it with queue-wait and cache traffic.
	Usage *attrib.Usage `json:"Usage,omitempty"`
}

// Analyze encodes residues under the matrix's alphabet and runs the
// configured engine.
func Analyze(id, residues string, opt Options) (*Report, error) {
	exch, err := resolveMatrix(opt.Matrix)
	if err != nil {
		return nil, err
	}
	q, err := seq.New(id, exch.Alphabet(), residues)
	if err != nil {
		return nil, err
	}
	return analyze(q, exch, opt)
}

// AnalyzeFASTA runs one analysis per FASTA record in r.
func AnalyzeFASTA(r io.Reader, opt Options) ([]*Report, error) {
	exch, err := resolveMatrix(opt.Matrix)
	if err != nil {
		return nil, err
	}
	records, err := seq.ReadFASTA(r, exch.Alphabet())
	if err != nil {
		return nil, err
	}
	out := make([]*Report, 0, len(records))
	for _, rec := range records {
		rep, err := analyze(rec, exch, opt)
		if err != nil {
			return nil, fmt.Errorf("repro: record %q: %w", rec.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

func resolveMatrix(name string) (*scoring.Matrix, error) {
	if name == "" {
		name = "BLOSUM62"
	}
	exch, ok := scoring.ByName(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown exchange matrix %q (have BLOSUM62, PAM250, dna-unit, paper-dna)", name)
	}
	return exch, nil
}

func analyze(q *seq.Sequence, exch *scoring.Matrix, opt Options) (*Report, error) {
	gap := scoring.DefaultGap(exch)
	if opt.GapOpen != 0 || opt.GapExt != 0 {
		gap = scoring.Gap{Open: int32(opt.GapOpen), Ext: int32(opt.GapExt)}
	}
	numTops := opt.NumTops
	if numTops == 0 {
		numTops = DefaultNumTops
	}
	counters := &stats.Counters{}
	if opt.Counters == nil {
		// Binding the per-run set is only safe when no caller-owned
		// cumulative set holds the registry names.
		counters.Bind(opt.Metrics)
	}
	// The engine span wraps the whole top-alignment computation; the
	// engine-specific children (cluster.run, parallel.worker,
	// engine.accept) nest under it. Nil-safe throughout: an untraced
	// request costs one nil check per instrumentation point.
	esp := opt.Spans.Start(opt.SpanParent, "engine")
	params := align.Params{Exch: exch, Gap: gap}
	// The lane count and kernel tier this run resolves to: stamped on
	// the engine span and reported in Stats so traces and reports show
	// which SIMD ladder rung served the request.
	lanes, tier := kernelFor(params, q.Len(), opt.Lanes, opt.Preset)
	esp.SetArg(int64(tier))
	cfg := topalign.Config{
		Params:     params,
		NumTops:    numTops,
		MinScore:   int32(opt.MinScore),
		GroupLanes: opt.Lanes,
		Counters:   counters,
		Spans:      opt.Spans,
		SpanParent: esp.ID(),
		SpanRank:   -1,
	}

	var (
		pcfg seedindex.Config
		err  error
	)
	if opt.Preset != "" {
		pcfg, err = seedindex.PresetConfig(opt.Preset, seq.PrimaryLetters(exch.Alphabet()))
		if err != nil {
			return nil, err
		}
		if opt.SeedK > 0 {
			pcfg.K = opt.SeedK
		}
		if opt.SeedMask != "" {
			pcfg.Mask = opt.SeedMask
		}
		if opt.SeedMaxOcc > 0 {
			pcfg.MaxOcc = opt.SeedMaxOcc
		}
		if opt.SeedBand > 0 {
			pcfg.BandWidth = opt.SeedBand
		}
		if opt.SeedPad > 0 {
			pcfg.Pad = opt.SeedPad
		}
		if err := pcfg.Validate(); err != nil {
			return nil, err
		}
	}

	var (
		res    *topalign.Result
		pstats *seedindex.Stats
	)
	// Resource attribution: the driver goroutine pins its thread and
	// meters its own CPU across the engine run (the one loop of a
	// windowed or one-worker run, the cluster's master). Window helpers
	// and shared-memory workers meter themselves into the same
	// counters. The heap-alloc delta is
	// process-global, accurate when requests run one at a time (the bench
	// configuration).
	alloc0 := attrib.HeapAllocBytes()
	var sw attrib.Stopwatch
	sw.Start()
	switch {
	case opt.Preset == seedindex.PresetFast || opt.Preset == seedindex.PresetBalanced:
		// Windowed extension through the best-first queue: one loop,
		// whatever the backend, so results are backend-independent. Its
		// helpers meter their own CPU into counters.
		res, pstats, err = seedindex.Find(q.Codes, pcfg, cfg)
	case opt.Slaves > 0:
		res, err = cluster.RunLocal(q.Codes,
			cluster.Config{Top: cfg, Speculative: opt.Speculative, Metrics: opt.Metrics,
				Spans: opt.Spans, SpanParent: esp.ID()},
			cluster.LocalSpec{Slaves: opt.Slaves, ThreadsPerSlave: opt.ThreadsPerSlave})
	default:
		// Workers 0 sizes the run by the process and 1 is the one-core
		// loop, both strict; Speculative applies to Workers > 1 only.
		res, err = parallel.Find(q.Codes, cfg,
			parallel.Config{Workers: opt.Workers, Speculative: opt.Speculative && opt.Workers > 1})
	}
	counters.AddCPU(sw.Stop())
	if err == nil && opt.Preset == seedindex.PresetSensitive {
		// Sensitive routes results through the exact engine above;
		// the prefilter runs scan-only for telemetry, so its report is
		// bit-identical to an unprefiltered run by construction.
		ssp := opt.Spans.Start(esp.ID(), "prefilter.scan")
		pstats, err = seedindex.Scan(q.Codes, pcfg, exch.MaxScore())
		ssp.End()
	}
	esp.End()
	if err != nil {
		return nil, err
	}

	fams, err := repeats.Delineate(q.Len(), res.Tops, repeats.Options{MinPairs: opt.MinPairs})
	if err != nil {
		return nil, err
	}

	rep := &Report{SeqID: q.ID, Residues: q.String(), SeqLen: q.Len()}
	if pstats != nil {
		rep.Prefilter = &PrefilterInfo{
			Preset: opt.Preset, K: pcfg.K, Mask: pcfg.Mask, MaxOcc: pcfg.MaxOcc,
			BandWidth: pcfg.BandWidth, Pad: pcfg.Pad,
			Kmers: pstats.Kmers, DroppedKmers: pstats.DroppedKmers,
			Positions: pstats.Positions, Pairs: pstats.Pairs,
			Segments: pstats.Segments, Clusters: pstats.Clusters,
			Candidates: pstats.Candidates, WindowCells: pstats.WindowCells,
			SequenceCells: pstats.SequenceCells,
		}
	}
	for _, top := range res.Tops {
		t := TopAlignment{Index: top.Index, Split: top.Split, Score: int(top.Score),
			Pairs: make([]Pair, len(top.Pairs))}
		for i, p := range top.Pairs {
			t.Pairs[i] = Pair{I: p.I, J: p.J}
		}
		rep.Tops = append(rep.Tops, t)
	}
	for _, f := range fams {
		rf := RepeatFamily{Support: f.Support, Score: f.Score, UnitLen: f.UnitLen(),
			Copies: make([]RepeatCopy, len(f.Copies))}
		for i, c := range f.Copies {
			rf.Copies[i] = RepeatCopy{Start: c.Start, End: c.End}
		}
		if cons, err := repeats.DeriveConsensus(q.Codes, f); err == nil {
			rf.Consensus = exch.Alphabet().Decode(cons.Codes)
			rf.Conservation = cons.MeanConservation()
		}
		rep.Families = append(rep.Families, rf)
	}
	snap := counters.Snapshot()
	opt.Counters.AddSnapshot(snap)
	rep.Stats = Stats{
		Alignments:   snap.Alignments,
		Realignments: snap.Realignments,
		Tracebacks:   snap.Tracebacks,
		Cells:        snap.Cells,
		ShadowEnds:   snap.ShadowEnds,
		Lanes:        lanes,
		KernelTier:   tier.String(),
	}
	if len(rep.Tops) > 1 {
		rep.Stats.RealignmentReduction = snap.RealignmentReduction(q.Len()-1, len(rep.Tops))
	}
	allocDelta := attrib.HeapAllocBytes() - alloc0
	if allocDelta < 0 {
		allocDelta = 0
	}
	rep.Usage = &attrib.Usage{
		CPUNanos:    snap.CPUNanos,
		Cells:       snap.Cells,
		Alignments:  snap.Alignments,
		AllocBytes:  allocDelta,
		KernelTiers: snap.KernelTiers(),
	}
	return rep, nil
}

// kernelFor resolves the lane count and kernel tier an analysis of n
// residues runs with, by the engine's own rule. Groups of 8 or 16 run
// the group kernel TierFor names. Everything else is one matrix at a
// time on align's row kernel, which picks its tier per matrix: an exact
// run is named by its middle split, the shape with the highest score
// bound, and the fast and balanced presets — windows, whatever the lane
// count — by the widest row tier the scoring model admits. The row
// ladder tops out at int16x16; window passes that run on the byte rung
// in front of it, a matrix under one block wide and one past the int16
// bound all show up as what they ran in Usage.KernelTiers.
func kernelFor(p align.Params, n, lanes int, preset string) (int, align.Tier) {
	if preset == seedindex.PresetFast || preset == seedindex.PresetBalanced {
		return 1, align.RowTier(p, align.RowBlock, align.RowBlock)
	}
	lanes = topalign.ResolveLanes(p, n, lanes)
	tier := multialign.TierFor(p, n, lanes)
	if tier == align.TierScalar {
		tier = align.RowTier(p, n/2, n-n/2)
	}
	return lanes, tier
}

// KernelTierFor reports the kernel tier name Analyze would select for
// the given request shape ("" on an unknown matrix). The serving layer
// stamps it onto pprof labels before running the engine, so profiler
// captures slice by tier without re-deriving scoring internals.
func KernelTierFor(matrix string, gapOpen, gapExt, seqLen, lanes int, preset string) string {
	exch, err := resolveMatrix(matrix)
	if err != nil {
		return ""
	}
	gap := scoring.DefaultGap(exch)
	if gapOpen != 0 || gapExt != 0 {
		gap = scoring.Gap{Open: int32(gapOpen), Ext: int32(gapExt)}
	}
	_, tier := kernelFor(align.Params{Exch: exch, Gap: gap}, seqLen, lanes, preset)
	return tier.String()
}

// WriteReport pretty-prints a report in the reprocli output format.
func WriteReport(w io.Writer, rep *Report) error {
	if _, err := fmt.Fprintf(w, "sequence %s (%d residues): %d top alignments, %d repeat families\n",
		rep.SeqID, rep.SeqLen, len(rep.Tops), len(rep.Families)); err != nil {
		return err
	}
	for _, top := range rep.Tops {
		first, last := top.Pairs[0], top.Pairs[len(top.Pairs)-1]
		fmt.Fprintf(w, "  top %2d: score %6d  split %5d  %d pairs  [%d-%d] ~ [%d-%d]\n",
			top.Index, top.Score, top.Split, len(top.Pairs),
			first.I, last.I, first.J, last.J)
	}
	for i, fam := range rep.Families {
		fmt.Fprintf(w, "  family %d: %d copies, unit ~%d, support %d, score %d\n",
			i+1, len(fam.Copies), fam.UnitLen, fam.Support, fam.Score)
		if fam.Consensus != "" {
			fmt.Fprintf(w, "    consensus %s (%.0f%% conserved)\n", fam.Consensus, 100*fam.Conservation)
		}
		for _, c := range fam.Copies {
			fmt.Fprintf(w, "    copy [%d-%d] (%d residues)\n", c.Start, c.End, c.End-c.Start+1)
		}
	}
	return nil
}
