// Command bench is the repository's benchmark: six workloads measured
// from outside, by timing calls into the public functions of each layer.
//
// The driver's form runs one workload and prints one JSON object as the
// last line of standard output:
//
//	go run -C bench . --workload exact-default --seed 1 --seconds 12 --trace 0
//
// Without --workload it runs every workload, each in a fresh child
// process so heap state cannot leak between them, and prints a table:
//
//	go run -C bench . -seed 1             end-to-end metrics, tracing off
//	go run -C bench . -seed 1 -trace 1    per-layer metrics, spans on
//	go run -C bench . -repeat 10          ten untraced suites on seeds 1..10, spread per metric
//	go run -C bench . -compare OLD.json NEW.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// outDir receives what a run leaves behind (result documents, Chrome
// traces); it is listed in .gitignore.
const outDir = "out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 12, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics, spans on")
		repeat       = flag.Int("repeat", 0, "run the untraced suite this many times on consecutive seeds and judge the spread of every metric")
		compare      = flag.Bool("compare", false, "compare two suite documents: -compare OLD.json NEW.json")
		out          = flag.String("out", "", "write the suite document here (default out/suite-t<trace>.json)")
		baseline     = flag.Bool("baseline", false, "also record the suite (or the -repeat spreads) in baseline.json")
		updateGolden = flag.Bool("update-golden", false, "recompute golden.json from seed 1 and exit")
	)
	flag.Parse()

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: fullScale}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes OLD.json NEW.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *updateGolden:
		err = writeGolden()
	case *workloadName != "":
		err = runOne(*workloadName, cfg)
	case *repeat > 0:
		err = runRepeat(cfg, *repeat, *out, *baseline)
	default:
		err = runSuite(cfg, *out, *baseline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runPath is where a single run leaves its full result document for the
// suite to pick up.
func runPath(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-t%d.json", workload, t))
}

// runOne is the driver's form: one workload, human-readable rows, then
// the contract's JSON object as the last line.
func runOne(name string, cfg runConfig) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := w.Run(cfg)
	printRun(r)
	if err := writeJSON(runPath(name, cfg.Trace), r); err != nil {
		return err
	}
	if len(r.Metrics) == 0 || r.Attempted == 0 {
		return fmt.Errorf("%s: no result: %v", name, r.Errors)
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]short, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = short{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRun prints every metric of a run by name, with its unit, sample
// count and spread, and the correctness checks that ran.
func printRun(r *Run) {
	fmt.Printf("%s  seed %d  trace %v  C=%d  %s\n", r.Workload, r.Seed, r.Trace, r.Env.Clients, r.Env.KernelTier)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		if v.N == 0 {
			continue // a layer that is not on this workload's path
		}
		if v.AliasOf != "" {
			fmt.Printf("  %-34s %14.6g %-5s = %s, restated\n", name, v.Value, v.Unit, v.AliasOf)
			continue
		}
		fmt.Printf("  %-34s %14.6g %-5s n=%-6d spread %.1f%%\n", name, v.Value, v.Unit, v.N, 100*v.Spread)
	}
	aux := make([]string, 0, len(r.Aux))
	for name := range r.Aux {
		aux = append(aux, name)
	}
	sort.Strings(aux)
	for _, name := range aux {
		v := r.Aux[name]
		fmt.Printf("  %-34s %14.6g %-5s n=%-6d spread %.1f%%  (not judged)\n", name, v.Value, v.Unit, v.N, 100*v.Spread)
	}
	fmt.Printf("  attempted %d  failed %d  fail_frac %.4g  correct %v\n", r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct)
	for _, c := range r.Checks {
		fmt.Printf("  check: %s\n", c)
	}
	for _, e := range r.Errors {
		fmt.Printf("  error: %s\n", e)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
