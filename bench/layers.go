package main

import (
	"runtime"
	"time"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/multialign"
	"repro/internal/parallel"
	"repro/internal/topalign"
	"repro/internal/triangle"
)

// Kernel rows are back-to-back calls on one goroutine over the
// workload's own input. A row gets a fixed time budget and visits
// splits at an even stride, so that it costs the same on n=900 and on
// n=3000 and still sees short and long operands.

// maxL1Len bounds the inputs the lanes-1 sequential driver is run on as
// a row: at n=3000 that one run takes about 50 s.
const maxL1Len = 1000

// groupCells is the cell count of the 16 splits of a group at r0.
func groupCells(n, r0, lanes int) int64 {
	var c int64
	for r := r0; r < r0+lanes && r <= n-1; r++ {
		c += align.Cells(r, n-r)
	}
	return c
}

// groupKernelRow times Scratch.ScoreGroupAuto at 16 lanes under one
// kernel tier and returns cells/s, the share of groups the int16 kernel
// had to re-run, and heap allocations per call.
func groupKernelRow(p *prepared, tier multialign.Tier, budget time.Duration) (cellsPerS, rerunFrac, mallocs float64) {
	if tier > multialign.DetectedTier() {
		return 0, 0, 0
	}
	prev := multialign.ActiveTier()
	if err := multialign.SetKernelTier(tier.String()); err != nil {
		return 0, 0, 0
	}
	defer multialign.SetKernelTier(prev.String()) //nolint:errcheck // prev was active, so it is supported

	s, n := p.Seq.Codes, p.Seq.Len()
	tri := triangle.New(n)
	sc := multialign.NewScratch()
	if _, err := sc.ScoreGroupAuto(p.Params, s, 1, 16, tri); err != nil { // warm the arena
		return 0, 0, 0
	}
	const lanes, visits = 16, 8
	stride := (n - 1) / lanes / visits * lanes
	if stride < lanes {
		stride = lanes
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var cells int64
	var calls, reruns int
	start := time.Now()
	for time.Since(start) < budget || calls == 0 {
		for r0 := 1; r0 <= n-1; r0 += stride {
			g, err := sc.ScoreGroupAuto(p.Params, s, r0, lanes, tri)
			if err != nil {
				return 0, 0, 0
			}
			if g.Rerun {
				reruns++
			}
			calls++
			cells += groupCells(n, r0, lanes)
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	return float64(cells) / wall, float64(reruns) / float64(calls), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// scoreKernelRow times the scalar split kernel, Scratch.ScoreMasked.
func scoreKernelRow(p *prepared, budget time.Duration) float64 {
	s, n := p.Seq.Codes, p.Seq.Len()
	tri := triangle.New(n)
	sc := align.NewScratch()
	stride := (n - 1) / 16
	if stride < 1 {
		stride = 1
	}
	var cells int64
	start := time.Now()
	for time.Since(start) < budget || cells == 0 {
		for r := 1; r <= n-1; r += stride {
			sc.ScoreMasked(p.Params, s[:r], s[r:], tri, r)
			cells += align.Cells(r, n-r)
		}
	}
	return float64(cells) / time.Since(start).Seconds()
}

// windowKernelRow times the windowed kernel, Scratch.ScoreWindow, over
// the workload's candidate rectangles.
func windowKernelRow(p *prepared, rects []align.Rect, budget time.Duration) float64 {
	if len(rects) == 0 {
		return 0
	}
	s := p.Seq.Codes
	sc := align.NewScratch()
	stride := len(rects) / 256
	if stride < 1 {
		stride = 1
	}
	var cells int64
	start := time.Now()
	for time.Since(start) < budget || cells == 0 {
		for i := 0; i < len(rects); i += stride {
			sc.ScoreWindow(p.Params, s, rects[i], nil)
			cells += rects[i].Cells()
		}
	}
	return float64(cells) / time.Since(start).Seconds()
}

// tracebackRow times Matrix + Traceback of the middle split of the
// input's first maxL1Len residues, in microseconds.
func tracebackRow(p *prepared) Value {
	s := p.Seq.Codes
	if len(s) > maxL1Len {
		s = s[:maxL1Len]
	}
	r := len(s) / 2
	s1, s2 := s[:r], s[r:]
	sc := align.NewScratch()
	var us sample
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		m := sc.Matrix(p.Params, s1, s2, nil, r)
		endX, _, _ := align.BestValidEnd(m[len(s1)][1:], nil)
		if endX > 0 {
			if _, err := sc.Traceback(p.Params, m, s1, s2, nil, r, endX); err != nil {
				return Value{}
			}
		}
		us = append(us, float64(time.Since(t0).Microseconds()))
	}
	return us.value()
}

// driverRow runs one best-first driver over the workload's input a few
// times and returns its wall-time sample, the cells and alignments of
// one run, and cells per CPU second.
func driverRow(reps int, run func() (*topalign.Result, error)) (wall sample, cells, aligns int64, cellsPerCPU float64, err error) {
	var cpu float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		cpu0, t0 := cpuSeconds(), time.Now()
		res, err := run()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu += cpuSeconds() - cpu0
		cells, aligns = res.Stats.Cells, res.Stats.Alignments
	}
	return wall, cells, aligns, ratio(float64(cells)*float64(reps), cpu), nil
}

// exactRows reports the layers of the exact engine: kernels, the
// sequential driver per lane count, the shared-memory scheduler and the
// in-process cluster, all on the workload's own sequence.
func (w *batchWorkload) exactRows(r *Run, p *prepared, cfg runConfig, last *stagedResult, stage map[string]sample, got map[string]Value) {
	budget := cfg.Scale.RowBudget
	codes, n := p.Seq.Codes, p.Seq.Len()
	rate := make(map[multialign.Tier]float64)
	for _, tier := range []multialign.Tier{multialign.TierScalar, multialign.TierInt32x8, multialign.TierInt16x16} {
		cellsPerS, rerun, mallocs := groupKernelRow(p, tier, budget)
		rate[tier] = cellsPerS
		got["multialign."+tier.String()+".cells_per_s"] = single(cellsPerS)
		if tier == multialign.TierInt16x16 {
			got["multialign.int16x16.rerun_frac"] = single(rerun)
		}
		if tier == multialign.ActiveTier() {
			got["multialign.mallocs_per_call"] = single(mallocs)
		}
	}
	score := scoreKernelRow(p, budget)
	got["align.score.cells_per_s"] = single(score)
	got["align.traceback.us"] = tracebackRow(p)

	fail := func(what string, err error) { r.fail("%s row: %v", what, err) }
	const reps = 2

	// Sequential driver, lanes 1: the staged replay itself on the default
	// path, a row of its own on another short input, skipped on a long one.
	var l1Cells int64
	l1 := stage["topalign.Find"]
	if p.Opts.Lanes <= 1 && p.Opts.Workers <= 1 {
		l1Cells = last.Engine.Cells
	} else if n <= maxL1Len {
		var err error
		if l1, l1Cells, _, _, err = driverRow(reps, func() (*topalign.Result, error) {
			return topalign.Find(codes, p.engineConfig(1))
		}); err != nil {
			fail("topalign.l1", err)
		}
	}
	if len(l1) > 0 {
		got["topalign.l1.solve_s"] = l1.value()
		got["topalign.l1.cells_per_s"] = single(float64(l1Cells) / median(l1))
		got["topalign.l1.efficiency"] = single(ratio(float64(l1Cells)/median(l1), score))
	}

	// Sequential driver, lanes 16.
	l16, l16Cells, _, _, err := driverRow(reps, func() (*topalign.Result, error) {
		return topalign.Find(codes, p.engineConfig(16))
	})
	if err != nil {
		fail("topalign.l16", err)
		return
	}
	got["topalign.l16.solve_s"] = l16.value()
	got["topalign.l16.cells_per_s"] = single(float64(l16Cells) / median(l16))
	got["topalign.l16.efficiency"] = single(ratio(float64(l16Cells)/median(l16), rate[multialign.ActiveTier()]))
	if l1Cells > 0 {
		got["topalign.l16.extra_cells_frac"] = single(float64(l16Cells)/float64(l1Cells) - 1)
	}

	// Shared-memory scheduler, lanes 16, C workers, strict then speculative.
	c := clients()
	par, parCells, _, parPerCPU, err := driverRow(reps, func() (*topalign.Result, error) {
		return parallel.Find(codes, p.engineConfig(16), parallel.Config{Workers: c})
	})
	if err != nil {
		fail("parallel.l16", err)
		return
	}
	got["parallel.l16.solve_s"] = par.value()
	got["parallel.l16.speedup"] = single(median(l16) / median(par))
	got["parallel.l16.cells_per_cpu_s"] = single(parPerCPU)
	_, specCells, _, _, err := driverRow(1, func() (*topalign.Result, error) {
		return parallel.Find(codes, p.engineConfig(16), parallel.Config{Workers: c, Speculative: true})
	})
	if err != nil {
		fail("parallel speculative", err)
		return
	}
	got["parallel.spec_overhead"] = single(float64(specCells)/float64(parCells) - 1)

	// In-process cluster, 2 slaves x 1 thread, lanes 16.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clu, _, cluAligns, cluPerCPU, err := driverRow(1, func() (*topalign.Result, error) {
		return cluster.RunLocal(codes, cluster.Config{Top: p.engineConfig(16)}, cluster.LocalSpec{Slaves: 2, ThreadsPerSlave: 1})
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		fail("cluster.l16", err)
		return
	}
	got["cluster.l16.solve_s"] = clu.value()
	got["cluster.l16.cells_per_cpu_s"] = single(cluPerCPU)
	got["cluster.mallocs_per_align"] = single(ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(cluAligns)))
}
