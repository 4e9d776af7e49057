// Command reprotrace analyses one request trace: it fetches the JSON
// span document served at GET /trace/{id} (reproserve, reprorouter or
// the repromaster debug listener), prints the critical-path breakdown —
// where the request's wall time actually went: queue wait, cache,
// dispatch, communication, kernels, speculation waste — and can
// reconcile the attributed total against an externally measured
// end-to-end latency.
//
//	reprotrace http://127.0.0.1:8080/trace/<id>
//	reprotrace -e2e-ms 123.4 -check 0.10 http://127.0.0.1:8080/trace/<id>
//
// The input may also be a file (or - for stdin) holding the same JSON,
// so traces can be archived and analysed offline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs/trace"
)

func main() {
	var (
		e2eMS = flag.Float64("e2e-ms", 0, "externally measured end-to-end latency to reconcile against (0 = use the root span)")
		check = flag.Float64("check", 0, "fail unless the attributed total is within this fraction of the end-to-end latency (0 disables)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: reprotrace [flags] <trace URL, file, or ->")
		os.Exit(2)
	}

	raw, err := fetch(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var doc struct {
		TraceID string           `json:"trace_id"`
		Dropped uint64           `json:"dropped"`
		Spans   []trace.SpanJSON `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatal(fmt.Errorf("parsing trace: %w", err))
	}

	rpt, err := trace.AnalyzeCriticalPath(trace.FromJSON(doc.Spans))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace %s: %d spans, root %q %.3fms\n",
		doc.TraceID, len(doc.Spans), rpt.RootName, ms(rpt.RootNS))
	if doc.Dropped > 0 {
		fmt.Printf("  (%d spans dropped by the per-trace buffer bound)\n", doc.Dropped)
	}
	if rpt.Orphans > 0 {
		fmt.Printf("  (%d spans unreachable from the root, not attributed)\n", rpt.Orphans)
	}
	for _, e := range rpt.Entries {
		fmt.Printf("  %-11s %10.3fms %5.1f%%\n", e.Category, ms(e.NS), 100*e.Frac)
	}

	// Reconciliation: the attribution sums to the root span by
	// construction, so the interesting comparison is against a latency
	// measured outside the trace (the analyze response's elapsed_ms).
	e2e := int64(*e2eMS * float64(time.Millisecond))
	if e2e <= 0 {
		e2e = rpt.RootNS
	}
	delta := 1.0
	if e2e > 0 {
		delta = math.Abs(float64(rpt.SumNS)-float64(e2e)) / float64(e2e)
	}
	fmt.Printf("  sum %.3fms vs e2e %.3fms (delta %.1f%%)\n", ms(rpt.SumNS), ms(e2e), 100*delta)
	if *check > 0 {
		// An incomplete span set cannot support a reconciliation verdict:
		// the missing spans could hold exactly the deviation being checked
		// for, so -check refuses rather than passes silently.
		if doc.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "reprotrace: trace is incomplete (%d spans dropped); -check cannot reconcile a partial tree\n",
				doc.Dropped)
			os.Exit(1)
		}
		if delta > *check {
			fmt.Fprintf(os.Stderr, "reprotrace: critical-path sum deviates %.1f%% from e2e latency (allowed %.1f%%)\n",
				100*delta, 100**check)
			os.Exit(1)
		}
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// fetch reads the trace document from a URL, a file, or stdin.
func fetch(src string) ([]byte, error) {
	if src == "-" {
		return io.ReadAll(os.Stdin)
	}
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		c := &http.Client{Timeout: 30 * time.Second}
		resp, err := c.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", src, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}
	return os.ReadFile(src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprotrace:", err)
	os.Exit(1)
}
