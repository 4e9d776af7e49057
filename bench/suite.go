package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro"
)

// Document is what the suite and -repeat write and -compare reads: the
// runs of every workload on one or more seeds, under one environment
// stamp.
type Document struct {
	Env     Env      `json:"env"`
	Trace   bool     `json:"trace"`
	Seconds float64  `json:"seconds"`
	Seeds   []uint64 `json:"seeds"`
	Runs    []*Run   `json:"runs"`
}

// samples returns the values of one metric of one workload, one per run.
func (d *Document) samples(workload, metric string) (vals []float64, inRun float64) {
	for _, r := range d.Runs {
		if r.Workload == workload {
			vals = append(vals, r.Metrics[metric].Value)
			inRun = r.Metrics[metric].Spread
		}
	}
	return vals, inRun
}

// aliasOf names the metric that `metric` restates on a workload, if any.
func (d *Document) aliasOf(workload, metric string) string {
	for _, r := range d.Runs {
		if r.Workload == workload {
			return r.Metrics[metric].AliasOf
		}
	}
	return ""
}

// failFrac is failed over attempted operations of a workload, all runs.
func (d *Document) failFrac(workload string) float64 {
	var failed, attempted int
	for _, r := range d.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// runChild runs one workload in a fresh process of this binary, so that
// no heap state carries over from the workload before it, echoes the
// child's rows and reads back its result document.
func runChild(name string, cfg runConfig) (*Run, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if cfg.Trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes()) //nolint:errcheck // diagnostics only
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rows := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndexByte(rows, '\n'); i >= 0 {
		fmt.Println(rows[:i]) // all but the driver's JSON line
	}
	var r Run
	if err := readJSON(runPath(name, cfg.Trace), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runSet runs every workload once on cfg's seed.
func runSet(cfg runConfig) ([]*Run, error) {
	var runs []*Run
	for _, w := range workloads() {
		r, err := runChild(w.Name, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// runSuite is the one command that prints every metric of a pass for
// all six workloads; it fails if any operation failed.
func runSuite(cfg runConfig, out string, toBaseline bool) error {
	runs, err := runSet(cfg)
	if err != nil {
		return err
	}
	doc := &Document{Env: stampEnv(), Trace: cfg.Trace, Seconds: cfg.Seconds, Seeds: []uint64{cfg.Seed}, Runs: runs}
	if out == "" {
		out = filepath.Join(outDir, "suite-t0.json")
		if cfg.Trace {
			out = filepath.Join(outDir, "suite-t1.json")
		}
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	fmt.Printf("\nsuite written to %s\n", out)
	if !cfg.Trace {
		printSummary(doc)
	}
	if toBaseline {
		if err := updateBaseline(func(b *Baseline) {
			b.Env, b.Seed, b.Seconds = doc.Env, cfg.Seed, cfg.Seconds
			section := make(map[string]map[string]Value)
			for _, r := range runs {
				section[r.Workload] = measured(r.Metrics)
			}
			if cfg.Trace {
				b.PerLayer = section
			} else {
				b.EndToEnd = section
			}
		}); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if r.Failed > 0 || !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// measured drops the metrics a workload did not measure (layers off its
// path), which the driver's line reports as 0.
func measured(m map[string]Value) map[string]Value {
	out := make(map[string]Value)
	for name, v := range m {
		if v.N > 0 {
			out[name] = v
		}
	}
	return out
}

// printSummary prints the end-to-end metrics of all workloads side by
// side, a restated value in parentheses.
func printSummary(doc *Document) {
	fmt.Printf("\n%-18s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.Name+" ["+d.Unit+"]")
	}
	fmt.Printf(" %10s\n", "fail_frac")
	for _, r := range doc.Runs {
		fmt.Printf("%-18s", r.Workload)
		for _, d := range endToEnd {
			cell := fmt.Sprintf("%.6g", r.Metrics[d.Name].Value)
			if r.Metrics[d.Name].AliasOf != "" {
				cell = "(" + cell + ")"
			}
			fmt.Printf(" %16s", cell)
		}
		fmt.Printf(" %10.4g\n", ratio(float64(r.Failed), float64(r.Attempted)))
	}
}

// SpreadRow is the steadiness of one metric on one workload over the
// runs of -repeat.
type SpreadRow struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Runs   int     `json:"runs"`
}

// runRepeat runs the untraced suite n times back to back, each time on
// another seed as the driver does, and judges every end-to-end metric's
// spread (quartile distance over median; with fewer than four runs the
// range over the median) against its bound in BENCHMARK.json. setup_s
// is shown but, as in the driver, not judged.
func runRepeat(cfg runConfig, n int, out string, toBaseline bool) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	cfg.Trace = false
	doc := &Document{Env: stampEnv(), Seconds: cfg.Seconds}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		fmt.Printf("--- set %d of %d, seed %d\n", i+1, n, c.Seed)
		runs, err := runSet(c)
		if err != nil {
			return err
		}
		doc.Seeds = append(doc.Seeds, c.Seed)
		doc.Runs = append(doc.Runs, runs...)
	}
	if out == "" {
		out = filepath.Join(outDir, "repeat.json")
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}

	rows, over := spreadRows(doc, sp.bounds())
	fmt.Printf("\n%-18s %-16s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			row, ok := rows[w.Name][d.Name]
			if !ok {
				continue
			}
			fmt.Printf("%-18s %-16s %14.6g %8.2f%% %6.0f%%\n", w.Name, d.Name, row.Median, 100*row.Spread, 100*row.Bound)
		}
	}
	fmt.Printf("repeat document written to %s\n", out)
	if toBaseline {
		if err := updateBaseline(func(b *Baseline) { b.Spread, b.SpreadSeeds = rows, doc.Seeds }); err != nil {
			return err
		}
	}
	for _, w := range workloads() {
		if f := doc.failFrac(w.Name); f > 0 {
			over = append(over, fmt.Sprintf("%s fail_frac %.4g", w.Name, f))
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("not steady: %s", strings.Join(over, "; "))
	}
	return nil
}

// spreadRows condenses a multi-seed document into one row per workload
// and end-to-end metric the workload measures (not the ones it restates),
// and lists the rows whose spread is over bound.
func spreadRows(doc *Document, bounds map[string]bound) (rows map[string]map[string]SpreadRow, over []string) {
	rows = make(map[string]map[string]SpreadRow)
	for _, w := range workloads() {
		rows[w.Name] = make(map[string]SpreadRow)
		for _, d := range endToEnd {
			if doc.aliasOf(w.Name, d.Name) != "" {
				continue
			}
			vals, _ := doc.samples(w.Name, d.Name)
			s := spread(vals)
			if len(vals) < 4 && len(vals) > 0 {
				srt := sorted(vals)
				s = ratio(srt[len(srt)-1]-srt[0], median(vals))
			}
			b := bounds[d.Name].Share
			rows[w.Name][d.Name] = SpreadRow{Median: median(vals), Spread: s, Bound: b, Runs: len(vals)}
			if s > b && d.Name != "setup_s" {
				over = append(over, fmt.Sprintf("%s %s spread %.1f%% over bound %.0f%%", w.Name, d.Name, 100*s, 100*b))
			}
		}
	}
	return rows, over
}

// Baseline is baseline.json: the numbers of the commit that last
// measured them, which BENCHMARK.json has no key for.
type Baseline struct {
	Env         Env                             `json:"env"`
	Seed        uint64                          `json:"seed"`
	Seconds     float64                         `json:"seconds"`
	EndToEnd    map[string]map[string]Value     `json:"end_to_end,omitempty"`
	PerLayer    map[string]map[string]Value     `json:"per_layer,omitempty"`
	SpreadSeeds []uint64                        `json:"spread_seeds,omitempty"`
	Spread      map[string]map[string]SpreadRow `json:"spread,omitempty"`
}

const baselinePath = "baseline.json"

func updateBaseline(edit func(*Baseline)) error {
	var b Baseline
	if err := readJSON(baselinePath, &b); err != nil && !os.IsNotExist(err) {
		return err
	}
	edit(&b)
	fmt.Printf("recorded in %s\n", baselinePath)
	return writeJSON(baselinePath, &b)
}

// writeGolden recomputes golden.json: digest and cell count of every
// family member of the four batch workloads, and the digests of the
// serve workloads' seed-1 hot set.
func writeGolden() error {
	cfg := runConfig{Seed: goldenSeed, Scale: fullScale}
	g := golden{Batch: make(map[string][]goldenInput)}
	for _, w := range batchWorkloads() {
		for m := 0; m < familySize; m++ {
			c := cfg
			c.Seed = uint64(m) + 1
			p, err := w.setup(c)
			if err != nil {
				return fmt.Errorf("%s input %d: %w", w.Name, m, err)
			}
			g.Batch[w.Name] = append(g.Batch[w.Name], goldenInput{p.Digest, p.Report.Stats.Cells})
		}
	}
	for k := 0; k < cfg.Scale.HotSet; k++ {
		req := newRequest(cfg.Scale, cfg.Seed, uint64(k), true)
		rep, err := repro.Analyze("serve", req.Seq.String(), repro.Options{NumTops: cfg.Scale.HotTops})
		if err != nil {
			return fmt.Errorf("hot request %d: %w", k, err)
		}
		g.HotSet = append(g.HotSet, digestTops(rep.Tops))
	}
	fmt.Printf("golden digests written to %s\n", goldenPath)
	return writeJSON(goldenPath, &g)
}
