package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
)

// TestAnalyzeResourceAttribution drives a miss then a hit and checks
// the full attribution surface: Report.Usage in the body, X-Resource-*
// headers, and the serve-side usage metrics.
func TestAnalyzeResourceAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg})

	req := Request{Sequence: "ATGCATGCATGCATGCATGC", Params: Params{Matrix: "paper-dna", Tops: 3}}
	resp, raw := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	env := decode(t, raw)
	rep, err := env.DecodeReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage == nil {
		t.Fatal("miss response report has no Usage")
	}
	if rep.Usage.Cells <= 0 || rep.Usage.Alignments <= 0 {
		t.Errorf("usage lacks work: %+v", rep.Usage)
	}
	if attrib.ThreadCPUSupported() && rep.Usage.CPUNanos <= 0 {
		t.Errorf("usage CPU not attributed: %+v", rep.Usage)
	}
	if len(rep.Usage.KernelTiers) == 0 {
		t.Errorf("usage lacks kernel tier mix: %+v", rep.Usage)
	}
	hdr := func(r *http.Response, name string) int64 {
		v := r.Header.Get(name)
		if v == "" {
			return 0
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("header %s = %q not an integer", name, v)
		}
		return n
	}
	if got := hdr(resp, "X-Resource-Cells"); got != rep.Usage.Cells {
		t.Errorf("X-Resource-Cells = %d, want %d", got, rep.Usage.Cells)
	}
	if hdr(resp, "X-Resource-Cache-Written-Bytes") <= 0 {
		t.Error("miss did not report cache write bytes")
	}

	// Hit: no engine work, cache read bytes only.
	resp2, raw2 := post(t, ts.URL, req)
	if got := decode(t, raw2).Cache; got != "hit" {
		t.Fatalf("second = %q, want hit", got)
	}
	if hdr(resp2, "X-Resource-Cache-Read-Bytes") <= 0 {
		t.Error("hit did not report cache read bytes")
	}
	if hdr(resp2, "X-Resource-Cpu-Ns") != 0 {
		t.Error("hit attributed engine CPU")
	}

	snap := reg.Snapshot()
	if snap.Histograms["serve/usage_cpu_ns"].Count != 2 {
		t.Errorf("usage_cpu_ns count = %d, want 2", snap.Histograms["serve/usage_cpu_ns"].Count)
	}
	if attrib.ThreadCPUSupported() && snap.Counters["serve/attrib_cpu_ns"] <= 0 {
		t.Error("attrib_cpu_ns total not accumulated")
	}
	if snap.Counters["serve/cache_bytes_written"] <= 0 || snap.Counters["serve/cache_bytes_read"] <= 0 {
		t.Errorf("cache byte counters: written=%d read=%d",
			snap.Counters["serve/cache_bytes_written"], snap.Counters["serve/cache_bytes_read"])
	}
}

// omSampleLine matches one OpenMetrics sample line: name, optional
// label clause, value, then optionally an exemplar clause.
var omSampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?( # \{[^{}]*\} -?[0-9]+(\.[0-9]+)?( [0-9]+\.[0-9]{3})?)?$`)

// TestOpenMetricsExemplarScrape is the golden scrape test: drive real
// requests through a traced server, scrape /metrics?format=openmetrics,
// validate the exposition line by line, and resolve every sampled
// exemplar's trace ID through GET /trace/{id}. The scrape also sets the
// proc/cpu_ns gauge.
func TestOpenMetricsExemplarScrape(t *testing.T) {
	reg := obs.NewRegistry()
	col := trace.NewCollector(0, 0)
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Traces: col})

	for _, seq := range []string{"ATGCATGCATGCATGC", "GGCCTTAAGGCCTTAA"} {
		resp, _ := post(t, ts.URL, Request{Sequence: seq, Params: Params{Matrix: "paper-dna", Tops: 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("scrape does not end with # EOF")
	}

	exemplarRE := regexp.MustCompile(`# \{trace_id="([0-9a-f]{32})"\}`)
	var traceIDs []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !omSampleLine.MatchString(line) {
			t.Errorf("invalid OpenMetrics sample line %q", line)
		}
		if m := exemplarRE.FindStringSubmatch(line); m != nil {
			if !strings.HasPrefix(line, "serve_e2e_ns_bucket{") {
				t.Errorf("exemplar on unexpected series: %q", line)
			}
			traceIDs = append(traceIDs, m[1])
		}
	}
	if len(traceIDs) == 0 {
		t.Fatal("no exemplars in scrape")
	}
	// Every exemplar's trace must resolve to a stored span tree.
	for _, tid := range traceIDs {
		tr, err := http.Get(ts.URL + "/trace/" + tid)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceID  string `json:"trace_id"`
			Complete bool   `json:"complete"`
		}
		err = json.NewDecoder(tr.Body).Decode(&doc)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK || err != nil || doc.TraceID != tid {
			t.Errorf("exemplar trace %s did not resolve: status=%d err=%v doc=%+v",
				tid, tr.StatusCode, err, doc)
		}
		if !doc.Complete {
			t.Errorf("trace %s marked incomplete", tid)
		}
	}
	// The counters must carry the _total suffix in this format.
	if !strings.Contains(out, "serve_requests_total ") {
		t.Error("counters lack _total suffix")
	}
	// The scrape refreshes proc/cpu_ns, reprostat's CPU denominator.
	if attrib.ThreadCPUSupported() && reg.Snapshot().Gauges["proc/cpu_ns"] <= 0 {
		t.Error("proc/cpu_ns gauge not set on scrape")
	}
}
