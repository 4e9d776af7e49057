// Command reprostat is a top-like aggregator over one or more
// reproserve shards: it polls each shard's /metrics JSON snapshot on an
// interval, prints per-shard request rates, attributed CPU, engine CPU,
// process CPU, kernel tier mix and speculation waste, and reconciles the
// sum of per-request CPU attribution against the process CPU clock — the
// continuous check that the attribution layer accounts for the cycles
// the process actually burns.
//
//	reprostat http://127.0.0.1:8081 http://127.0.0.1:8082
//	reprostat -once -json http://127.0.0.1:8081
//	reprostat -interval 5s -check 0.15 http://127.0.0.1:8081
//
// With -check F the tool takes two polls one interval apart and exits
// non-zero unless the attributed CPU delta reconciles with the process
// CPU delta within fraction F (CI mode, run under live load so the
// window is compute-dominated). serve/attrib_cpu_ns is the per-request
// attribution summed at the serve layer, engine/cpu_ns the engine's own
// meters, and proc/cpu_ns the whole-process OS clock that bounds both
// from above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		interval = flag.Duration("interval", 2*time.Second, "poll period")
		once     = flag.Bool("once", false, "print one snapshot and exit")
		check    = flag.Float64("check", 0, "CI mode: poll twice one interval apart and fail unless attributed CPU reconciles with engine CPU within this fraction")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of the table")
		count    = flag.Int("n", 0, "number of poll rounds before exiting (0 = forever)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: reprostat [flags] <shard base URL>...")
		os.Exit(2)
	}
	shards := flag.Args()
	client := &http.Client{Timeout: 10 * time.Second}

	if *check > 0 {
		runCheck(client, shards, *interval, *check, *asJSON)
		return
	}

	var prev map[string]*obs.Snapshot
	rounds := 0
	for {
		cur := pollAll(client, shards)
		if *asJSON {
			printJSON(shards, cur, prev, *interval)
		} else {
			printTable(shards, cur, prev, *interval)
		}
		rounds++
		if *once || (*count > 0 && rounds >= *count) {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// pollAll scrapes every shard; unreachable shards map to nil.
func pollAll(client *http.Client, shards []string) map[string]*obs.Snapshot {
	out := make(map[string]*obs.Snapshot, len(shards))
	for _, s := range shards {
		snap, err := scrape(client, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprostat: %s: %v\n", s, err)
			out[s] = nil
			continue
		}
		out[s] = snap
	}
	return out
}

func scrape(client *http.Client, base string) (*obs.Snapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// delta returns cur-prev for a counter (cur when prev is absent, so the
// first round shows absolute values).
func delta(cur, prev *obs.Snapshot, name string) int64 {
	if cur == nil {
		return 0
	}
	v := cur.Counters[name]
	if prev != nil {
		v -= prev.Counters[name]
	}
	return v
}

// recon is one shard's CPU reconciliation: attributed (per-request
// records summed in serve), engine (the engine's own meters), process
// (the OS clock, upper bound for both).
type recon struct {
	AttribNS int64 `json:"attrib_cpu_ns"`
	EngineNS int64 `json:"engine_cpu_ns"`
	ProcNS   int64 `json:"proc_cpu_ns"`
}

func reconOf(cur, prev *obs.Snapshot) recon {
	r := recon{
		AttribNS: delta(cur, prev, "serve/attrib_cpu_ns"),
		EngineNS: delta(cur, prev, "engine/cpu_ns"),
	}
	if cur != nil {
		r.ProcNS = cur.Gauges["proc/cpu_ns"]
		if prev != nil {
			r.ProcNS -= prev.Gauges["proc/cpu_ns"]
		}
	}
	return r
}

// deviation is the reconciliation error |1 - attrib/proc| — how far the
// per-request attribution falls short of (or overshoots) the process
// CPU clock over the window. Meaningful only when the window is
// compute-dominated: an idle window's proc CPU is mostly runtime
// background work the attribution layer deliberately does not claim.
func (r recon) deviation() float64 {
	if r.ProcNS == 0 && r.AttribNS == 0 {
		return 0
	}
	if r.ProcNS == 0 {
		return 1
	}
	return math.Abs(1 - float64(r.AttribNS)/float64(r.ProcNS))
}

func printTable(shards []string, cur, prev map[string]*obs.Snapshot, ival time.Duration) {
	secs := ival.Seconds()
	// The tier column's header names its shares in tierMix's order.
	fmt.Printf("%-28s %8s %10s %10s %10s %13s %6s\n",
		"SHARD", "REQ/S", "CPU/S", "ENG/S", "PROC/S", "I16/I32/SC/U8", "SPEC")
	for _, s := range shards {
		c := cur[s]
		if c == nil {
			fmt.Printf("%-28s %8s\n", trimShard(s), "DOWN")
			continue
		}
		p := prev[s]
		r := reconOf(c, p)
		reqs := delta(c, p, "serve/completed")
		rate := func(v int64) string {
			if p == nil {
				return fmtNS(v) // first round: absolute, not a rate
			}
			return fmtNS(int64(float64(v) / secs))
		}
		fmt.Printf("%-28s %8.1f %10s %10s %10s %13s %6s\n",
			trimShard(s),
			float64(reqs)/ifElse(p == nil, 1, secs),
			rate(r.AttribNS), rate(r.EngineNS), rate(r.ProcNS),
			tierMix(c), specShare(c, p))
	}
}

// ifElse picks b when cond, else a. (Keeps the printf call readable.)
func ifElse(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

func trimShard(s string) string {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "http://"), "https://")
	if len(s) > 28 {
		s = s[:28]
	}
	return s
}

func fmtNS(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%dus", ns/1e3)
	}
}

// tierMix renders the kernel tier alignment mix as percentage shares in
// counter-name order: int16x16/int32x8/scalar/u8x32 (four shares, one
// per engine/alignments_tier/ counter).
func tierMix(s *obs.Snapshot) string {
	var names []string
	for name := range s.Counters {
		if strings.HasPrefix(name, "engine/alignments_tier/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total int64
	for _, n := range names {
		total += s.Counters[n]
	}
	if total == 0 {
		return "-"
	}
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%.0f", 100*float64(s.Counters[n])/float64(total)))
	}
	return strings.Join(parts, "/")
}

// specShare renders the interval's speculation waste — results a
// scheduler or a windowed run's helpers computed and nobody took
// (engine/spec_waste) — as a share of the interval's alignments.
func specShare(cur, prev *obs.Snapshot) string {
	aligned := delta(cur, prev, "engine/alignments")
	if aligned <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(delta(cur, prev, "engine/spec_waste"))/float64(aligned))
}

// jsonDoc is the -json output shape: per-shard reconciliation plus the
// fleet total.
type jsonDoc struct {
	IntervalS float64          `json:"interval_s"`
	Shards    map[string]recon `json:"shards"`
	Total     recon            `json:"total"`
	Deviation float64          `json:"deviation"`
}

func buildDoc(shards []string, cur, prev map[string]*obs.Snapshot, ival time.Duration) jsonDoc {
	doc := jsonDoc{IntervalS: ival.Seconds(), Shards: map[string]recon{}}
	for _, s := range shards {
		if cur[s] == nil {
			continue
		}
		var p *obs.Snapshot
		if prev != nil {
			p = prev[s]
		}
		r := reconOf(cur[s], p)
		doc.Shards[s] = r
		doc.Total.AttribNS += r.AttribNS
		doc.Total.EngineNS += r.EngineNS
		doc.Total.ProcNS += r.ProcNS
	}
	doc.Deviation = doc.Total.deviation()
	return doc
}

func printJSON(shards []string, cur, prev map[string]*obs.Snapshot, ival time.Duration) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(buildDoc(shards, cur, prev, ival)) //nolint:errcheck
}

// runCheck is CI mode: two polls bracket one interval of live load, and
// the attributed-CPU delta must reconcile with the process-CPU delta
// within frac. The window must be compute-dominated for the tolerance
// to be meaningful — CI drives load concurrently with the check.
func runCheck(client *http.Client, shards []string, ival time.Duration, frac float64, asJSON bool) {
	first := pollAll(client, shards)
	time.Sleep(ival)
	second := pollAll(client, shards)
	for _, s := range shards {
		if first[s] == nil || second[s] == nil {
			fmt.Fprintf(os.Stderr, "reprostat: shard %s unreachable\n", s)
			os.Exit(1)
		}
	}
	doc := buildDoc(shards, second, first, ival)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck
	} else {
		fmt.Printf("reprostat: attrib %s, engine %s, proc %s over %s (deviation %.1f%%)\n",
			fmtNS(doc.Total.AttribNS), fmtNS(doc.Total.EngineNS), fmtNS(doc.Total.ProcNS),
			ival, 100*doc.Deviation)
	}
	if doc.Total.EngineNS == 0 {
		fmt.Fprintln(os.Stderr, "reprostat: no engine CPU spent during the check window; drive load first")
		os.Exit(1)
	}
	if doc.Deviation > frac {
		fmt.Fprintf(os.Stderr, "reprostat: attribution deviates %.1f%% from process CPU (allowed %.1f%%)\n",
			100*doc.Deviation, 100*frac)
		os.Exit(1)
	}
}
