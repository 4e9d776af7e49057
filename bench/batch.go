package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/parallel"
	"repro/internal/repeats"
	"repro/internal/seedindex"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// batchWorkload is one repro.Analyze call repeated on one generated
// sequence.
type batchWorkload struct {
	Name  string
	Why   string
	Input func(sc scale, seed uint64) *seq.Sequence
	Opts  func(sc scale, c int) repro.Options
}

// prepared is what a set-up leaves behind: the input, its scoring model
// and the checked warm-up report every repetition must reproduce.
type prepared struct {
	Seq      *seq.Sequence
	Residues string
	Opts     repro.Options
	Params   align.Params
	Report   *repro.Report
	Digest   string
}

// setup generates the input and runs the warm-up analysis, which is
// also the structural check.
func (w *batchWorkload) setup(cfg runConfig) (*prepared, error) {
	q := w.Input(cfg.Scale, cfg.Seed)
	p := &prepared{Seq: q, Residues: q.String(), Opts: w.Opts(cfg.Scale, clients())}
	var err error
	if p.Params, err = scoringModel(p.Opts.Matrix); err != nil {
		return nil, err
	}
	if p.Report, err = repro.Analyze(q.ID, p.Residues, p.Opts); err != nil {
		return nil, err
	}
	if err := validateTops(p.Report.Tops, p.Params, q.Codes); err != nil {
		return nil, err
	}
	p.Digest = digestTops(p.Report.Tops)
	return p, nil
}

// analyze is one timed repetition: a collected heap first, because a
// 225 MB override triangle left over from the last repetition is
// sometimes re-zeroed and sometimes freshly mapped, which spread
// prefilter-protein over 0.94-2.49 s.
func (p *prepared) analyze() (rep *repro.Report, wall float64, err error) {
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	rep, err = repro.Analyze(p.Seq.ID, p.Residues, p.Opts)
	return rep, time.Since(t0).Seconds(), err
}

// check holds a repetition against the warm-up: all repetitions of one
// input must be identical.
func (p *prepared) check(r *Run, rep *repro.Report, err error) bool {
	r.Attempted++
	r.checked("repetitions identical to warm-up")
	switch {
	case err != nil:
		r.fail("analyze: %v", err)
	case digestTops(rep.Tops) != p.Digest:
		r.fail("repetition digest %s differs from warm-up %s", digestTops(rep.Tops), p.Digest)
	default:
		return true
	}
	return false
}

func (w *batchWorkload) run(cfg runConfig) *Run {
	r := &Run{Workload: w.Name, Trace: cfg.Trace, Seed: cfg.Seed, Seconds: cfg.Seconds, Env: stampEnv()}
	got := make(map[string]Value)
	defer func() {
		r.setMetrics(got)
		r.Correct = r.Failed == 0
	}()

	var setups sample
	var p *prepared
	n := cfg.Scale.Setups
	if cfg.Trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		p = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		p, err = w.setup(cfg)
		r.Attempted++
		r.checked("structural validator")
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	refScale := 1.0
	if cfg.Scale.Golden {
		g, err := readGolden()
		if err != nil || len(g.Batch[w.Name]) == 0 {
			r.fail("golden: %s: %v", w.Name, err)
			return r
		}
		inputs := g.Batch[w.Name]
		in := inputs[member(cfg.Seed)]
		checkGolden(r, w.Name, p.Digest, in.Digest)
		// The inputs of a family need different amounts of work. Scaling
		// a wall time by frozen cell counts, the golden seed's over this
		// input's, makes the seeds read alike without letting the program
		// under test touch the factor.
		refScale = float64(inputs[member(goldenSeed)].Cells) / float64(in.Cells)
	}
	if p.Opts.Lanes == 16 && r.Env.tierDegraded() {
		r.checked("tier_degraded: no int16x16 kernel on this CPU, not comparable")
	}

	if cfg.Trace {
		w.traced(r, p, cfg, got)
		return r
	}

	var walls sample
	start := time.Now()
	for len(walls) < 3 || time.Since(start).Seconds() < cfg.Seconds {
		rep, wall, err := p.analyze()
		if !p.check(r, rep, err) {
			if r.Failed > 3 {
				return r
			}
			continue
		}
		walls = append(walls, wall*refScale)
	}
	solve := walls.quietLow()
	got["setup_s"] = setups.scaled(refScale) // nearly all of it is the warm-up analysis
	got["solve_s"] = solve
	got["rps"] = solve.restated("solve_s", 1/solve.Value)
	for _, name := range []string{"hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p95_ms"} {
		got[name] = solve.restated("solve_s", 1e3*solve.Value)
	}
	return r
}

// engineConfig is the topalign configuration repro.Analyze builds for
// the workload's options, at the given lane count.
func (p *prepared) engineConfig(lanes int) topalign.Config {
	return topalign.Config{Params: p.Params, NumTops: p.Opts.NumTops, GroupLanes: lanes, Counters: &stats.Counters{}}
}

// stagedResult is what one staged replay yields beside its spans.
type stagedResult struct {
	Tops      []topalign.TopAlignment
	Engine    stats.Snapshot
	Prefilter *seedindex.Stats
	Rects     []align.Rect // candidate windows, for the window kernel row
}

// staged replays repro.Analyze as the sequence of public layer calls it
// is made of, each under a span of trace id.
func (w *batchWorkload) staged(rec *recorder, id int, p *prepared) (*stagedResult, error) {
	root := rec.start(id, -1, "repro.staged")
	defer rec.end(root)
	call := func(name string, fn func(sp int) error) error {
		sp := rec.start(id, root, name)
		defer rec.end(sp)
		return fn(sp)
	}

	var q *seq.Sequence
	if err := call("seq.New", func(int) (err error) {
		q, err = seq.New(p.Seq.ID, p.Params.Exch.Alphabet(), p.Residues)
		return err
	}); err != nil {
		return nil, err
	}

	res := &stagedResult{}
	cfg := p.engineConfig(p.Opts.Lanes)
	switch {
	case p.Opts.Preset != "":
		pcfg, err := seedindex.PresetConfig(p.Opts.Preset, seq.PrimaryLetters(p.Params.Exch.Alphabet()))
		if err != nil {
			return nil, err
		}
		st := &seedindex.Stats{SequenceCells: int64(q.Len()) * int64(q.Len()-1) / 2}
		var x *seedindex.Index
		if err := call("seedindex.BuildIndex", func(int) (err error) {
			x, err = seedindex.BuildIndex(q.Codes, pcfg)
			return err
		}); err != nil {
			return nil, err
		}
		st.Kmers, st.DroppedKmers, st.Positions = x.Kmers(), x.Dropped(), x.Positions()
		var ch seedindex.ChainResult
		call("seedindex.Chain", func(int) error { ch = seedindex.Chain(x, pcfg); return nil }) //nolint:errcheck // fn cannot fail
		var cands []seedindex.Candidate
		call("seedindex.Candidates", func(int) error { //nolint:errcheck // fn cannot fail
			cands = seedindex.Candidates(ch, pcfg, q.Len(), p.Params.Exch.MaxScore())
			return nil
		})
		st.Pairs, st.Segments, st.Clusters, st.Candidates = ch.Pairs, ch.Segments, len(ch.Clusters), len(cands)
		var e *topalign.Engine
		if err := call("topalign.NewEngine", func(int) (err error) {
			e, err = topalign.NewEngine(q.Codes, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		if err := call("seedindex.extend", func(extend int) error {
			tasks := make([]*topalign.Task, 0, len(cands))
			for _, c := range cands {
				if c.Bound < e.Config().MinScore {
					continue
				}
				st.WindowCells += c.Rect.Cells()
				res.Rects = append(res.Rects, c.Rect)
				tasks = append(tasks, &topalign.Task{R: c.Rect.Y1, Score: c.Bound, AlignedWith: -1,
					Win: &topalign.Window{Rect: c.Rect, Bound: c.Bound}})
			}
			sp := rec.start(id, extend, "topalign.RunWindows")
			defer rec.end(sp)
			return topalign.RunWindows(e, tasks)
		}); err != nil {
			return nil, err
		}
		res.Tops, res.Prefilter = e.Tops(), st
	case p.Opts.Workers > 1:
		if err := call("parallel.Find", func(int) error {
			out, err := parallel.Find(q.Codes, cfg, parallel.Config{Workers: p.Opts.Workers})
			if err == nil {
				res.Tops = out.Tops
			}
			return err
		}); err != nil {
			return nil, err
		}
	default:
		if err := call("topalign.Find", func(int) error {
			out, err := topalign.Find(q.Codes, cfg)
			if err == nil {
				res.Tops = out.Tops
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	res.Engine = cfg.Counters.Snapshot()

	return res, call("repeats.Delineate", func(int) error {
		_, err := repeats.Delineate(q.Len(), res.Tops, repeats.Options{MinPairs: p.Opts.MinPairs})
		return err
	})
}

// traced is the per-layer pass of a batch workload: untraced reference
// repetitions, staged replays under spans, then the rows of the layers
// on the workload's path.
func (w *batchWorkload) traced(r *Run, p *prepared, cfg runConfig, got map[string]Value) {
	const reps = 3

	// Untraced reference repetitions of repro.Analyze alternate with
	// staged replays under spans, so that drift of the host during the
	// run falls on both alike. The process counters are read around the
	// reference repetitions only.
	var direct sample
	var alloc, mallocs, pauseNS uint64
	rec := newRecorder(time.Now())
	var last *stagedResult
	for i := 0; i < reps; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rep, wall, err := p.analyze()
		runtime.ReadMemStats(&ms1)
		if !p.check(r, rep, err) {
			return
		}
		direct = append(direct, wall)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		mallocs += ms1.Mallocs - ms0.Mallocs
		pauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs

		runtime.GC()
		debug.FreeOSMemory()
		res, err := w.staged(rec, i, p)
		r.Attempted++
		r.checked("staged replay equals repro.Analyze")
		if err != nil {
			r.fail("staged replay: %v", err)
			return
		}
		if d := digestTops(reproTops(res.Tops)); d != p.Digest {
			r.fail("staged replay digest %s differs from repro.Analyze's %s", d, p.Digest)
			return
		}
		last = res
	}
	got["repro.solve_s"] = direct.value()
	got["repro.cells"] = single(float64(p.Report.Stats.Cells))
	got["repro.cells_per_s"] = single(float64(p.Report.Stats.Cells) / median(direct))
	got["proc.alloc_mb_per_op"] = single(float64(alloc) / (1 << 20) / reps)
	got["proc.mallocs_per_op"] = single(float64(mallocs) / reps)
	got["proc.gc_pause_ms"] = single(float64(pauseNS) / 1e6)

	r.checked("span trees well formed")
	if err := wellFormed(rec.spans); err != nil {
		r.fail("spans: %v", err)
	}
	stage := make(map[string]sample) // seconds per span name, one sample per replay
	for _, s := range rec.spans {
		stage[s.Name] = append(stage[s.Name], (s.End - s.Start).Seconds())
	}
	layers := 0.0
	for name, s := range stage {
		if name != "repro.staged" && name != "topalign.RunWindows" { // the root; a child of seedindex.extend
			layers += median(s)
		}
	}
	got["repro.overhead.s"] = single(median(direct) - layers)
	got["trace_overhead_frac"] = single(median(stage["repro.staged"])/median(direct) - 1)
	got["trace.spans"] = single(float64(len(rec.spans)))
	got["repeats.delineate.s"] = stage["repeats.Delineate"].value()
	got["topalign.alignments"] = single(float64(last.Engine.Alignments))
	got["topalign.realignments"] = single(float64(last.Engine.Realignments))
	if len(last.Tops) > 1 {
		got["topalign.realign_reduction"] = single(last.Engine.RealignmentReduction(p.Seq.Len()-1, len(last.Tops)))
	}

	if last.Prefilter != nil {
		w.prefilterRows(p, cfg, last, stage, got)
	} else {
		w.exactRows(r, p, cfg, last, stage, got)
	}

	got["proc.cpu_s"] = single(cpuSeconds())
	got["proc.peak_rss_mb"] = single(peakRSSMB())
	printLayerTable(rec.spans)
	if path, err := flushChrome(w.Name, rec.spans); err != nil {
		r.fail("trace file: %v", err)
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
}

// prefilterRows reports the seedindex stages and the window kernel.
func (w *batchWorkload) prefilterRows(p *prepared, cfg runConfig, last *stagedResult, stage map[string]sample, got map[string]Value) {
	st := last.Prefilter
	got["seedindex.index.s"] = stage["seedindex.BuildIndex"].value()
	got["seedindex.chain.s"] = stage["seedindex.Chain"].value()
	got["seedindex.candidates.s"] = stage["seedindex.Candidates"].value()
	got["seedindex.extend.s"] = stage["seedindex.extend"].value()
	got["topalign.new_engine.s"] = stage["topalign.NewEngine"].value()
	got["topalign.windows.s"] = stage["topalign.RunWindows"].value()
	extend := ratio(float64(last.Engine.Cells), median(stage["seedindex.extend"]))
	got["seedindex.extend.cells_per_s"] = single(extend)
	got["seedindex.candidates"] = single(float64(st.Candidates))
	got["seedindex.pairs"] = single(float64(st.Pairs))
	got["seedindex.dropped_kmers"] = single(float64(st.DroppedKmers))
	got["seedindex.window_frac"] = single(ratio(float64(st.WindowCells), float64(st.SequenceCells)))
	got["seedindex.cells_per_window"] = single(ratio(float64(st.WindowCells), float64(len(last.Rects))))

	window := windowKernelRow(p, last.Rects, cfg.Scale.RowBudget)
	got["align.window.cells_per_s"] = single(window)
	got["seedindex.extend.efficiency"] = single(ratio(extend, window))
}
