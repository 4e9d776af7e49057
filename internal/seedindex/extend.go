package seedindex

import (
	"sync"

	"repro/internal/obs/attrib"
	"repro/internal/topalign"
)

// scan runs the index and chain stages over s and returns the candidate
// windows with the statistics of both stages, each stage under a span
// (prefilter.index, prefilter.chain) of top.SpanParent, so reprotrace
// attributes prefilter time. chained, when not nil, is called once the
// chain's workers are done, before the candidates are cut.
func scan(s []byte, cfg Config, maxScore int32, top topalign.Config, chained func()) ([]Candidate, *Stats, error) {
	st := &Stats{}
	if n := int64(len(s)); n > 1 {
		st.SequenceCells = n * (n - 1) / 2
	}

	sp := top.Spans.Start(top.SpanParent, "prefilter.index")
	sp.SetRank(top.SpanRank)
	x, err := BuildIndex(s, cfg)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	st.Kmers, st.DroppedKmers, st.Positions = x.Kmers(), x.Dropped(), x.Positions()

	sp = top.Spans.Start(top.SpanParent, "prefilter.chain")
	sp.SetRank(top.SpanRank)
	ch := chainOnCores(x, cfg, crew{counters: top.Counters, spans: top.Spans, parent: sp.ID(), rank: top.SpanRank})
	if chained != nil {
		chained()
	}
	cands := Candidates(ch, cfg, len(s), maxScore)
	sp.End()
	st.Pairs, st.Segments, st.Clusters = ch.Pairs, ch.Segments, len(ch.Clusters)
	st.Candidates = len(cands)
	return cands, st, nil
}

// Find runs the full seed-filter-extend pipeline over sequence s
// (residue codes) and returns top alignments through the standard
// best-first queue, plus the prefilter stage statistics.
//
// The extension is topalign.RunWindows: one best-first loop over the
// candidate windows, their first alignments computed ahead on the other
// cores and on the byte rung where scores are small. It is recorded as a
// span (prefilter.extend) beside scan's two. Group lanes do not apply to
// windowed extension and are ignored.
func Find(s []byte, cfg Config, top topalign.Config) (*topalign.Result, *Stats, error) {
	e, err := topalign.NewEngine(s, top)
	if err != nil {
		return nil, nil, err
	}
	// The query profile the extension reads is built on another core
	// beside the candidates stage, once the chain's workers are done: it
	// holds an engaged place, billed to the run, and gives it back before
	// the extension sizes its helpers.
	var profiled sync.WaitGroup
	cands, st, err := scan(s, cfg, top.Params.Exch.MaxScore(), top, func() {
		profiled.Add(1)
		topalign.Engage()
		go func() {
			defer profiled.Done()
			defer topalign.Release()
			var sw attrib.Stopwatch
			sw.Start()
			e.WindowProfile()
			top.Counters.AddCPU(sw.Stop())
		}()
	})
	if err != nil {
		return nil, nil, err
	}
	tasks := windowTasks(cands, e.Config().MinScore, st)
	profiled.Wait()

	sp := top.Spans.Start(top.SpanParent, "prefilter.extend")
	sp.SetRank(top.SpanRank)
	err = topalign.RunWindows(e, tasks)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return &topalign.Result{
		SeqLen: e.Len(),
		Tops:   e.Tops(),
		Stats:  e.Config().Counters.Snapshot(),
	}, st, nil
}

// windowTasks builds the windowed task of every candidate whose bound
// reaches minScore, queued at that bound, and counts the rest as pruned.
// Tasks and windows are carved from two slabs: one allocation each, not
// two per candidate.
func windowTasks(cands []Candidate, minScore int32, st *Stats) []*topalign.Task {
	tasks := make([]*topalign.Task, 0, len(cands))
	taskSlab := make([]topalign.Task, len(cands))
	winSlab := make([]topalign.Window, len(cands))
	for _, c := range cands {
		if c.Bound < minScore {
			st.PrunedBound++
			continue
		}
		st.WindowCells += c.Rect.Cells()
		t, w := &taskSlab[len(tasks)], &winSlab[len(tasks)]
		*w = topalign.Window{Rect: c.Rect, Bound: c.Bound}
		*t = topalign.Task{R: c.Rect.Y1, Score: c.Bound, AlignedWith: -1, Win: w}
		tasks = append(tasks, t)
	}
	return tasks
}

// Scan runs only the index and chain stages and reports what the filter
// would do, without extending. The sensitive preset uses it: results
// come from the exact engine (bit-identical by construction) while the
// scan supplies prefilter telemetry for the report and trace.
func Scan(s []byte, cfg Config, maxScore int32) (*Stats, error) {
	cands, st, err := scan(s, cfg, maxScore, topalign.Config{}, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range cands {
		st.WindowCells += c.Rect.Cells()
	}
	return st, nil
}
