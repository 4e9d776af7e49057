package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve/e2e_ns":           "serve_e2e_ns",
		"cluster/job_ns/rank2":   "cluster_job_ns_rank2",
		"cluster/dispatch-total": "cluster_dispatch_total",
		"9lives":                 "_9lives",
		"a:b":                    "a:b",
	}
	reg := NewRegistry()
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		reg.Gauge(in).Set(1)
	}
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range cases {
		if !strings.Contains(sb.String(), "# TYPE "+want+" gauge\n"+want+" 1\n") {
			t.Errorf("exposition missing family %q:\n%s", want, sb.String())
		}
	}
}

// TestPromLabelEscaping: label values containing backslash, quote, and
// newline must be escaped per the exposition format spec — a hostile
// shard label cannot corrupt the scrape.
func TestPromLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	hostile := "http://evil\"\nshard\\:8080"
	reg.Counter(LabeledName("router/shard_requests", "shard", hostile)).Add(5)
	reg.Counter(LabeledName("router/shard_requests", "shard", "http://ok:1")).Add(2)

	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `router_shard_requests_total{shard="http://evil\"\nshard\\:8080"} 5`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing escaped line %q:\n%s", want, out)
	}
	if !strings.Contains(out, `router_shard_requests_total{shard="http://ok:1"} 2`) {
		t.Errorf("exposition missing plain labeled line:\n%s", out)
	}
	// One TYPE line for the whole family, not one per label set.
	if n := strings.Count(out, "# TYPE router_shard_requests counter"); n != 1 {
		t.Errorf("family TYPE line emitted %d times, want 1:\n%s", n, out)
	}
	// The raw newline must not survive into the exposition: every line
	// must be a comment, an escaped sample, or empty.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("scrape line %q has no value — a label leaked a newline", line)
		}
	}
}

func TestLabeledNameRoundTrip(t *testing.T) {
	name := LabeledName("serve/usage_cpu_ns", "backend", "cluster", "tier", "int16x16")
	base, pairs := splitLabeled(name)
	if base != "serve/usage_cpu_ns" || len(pairs) != 2 ||
		pairs[0] != [2]string{"backend", "cluster"} || pairs[1] != [2]string{"tier", "int16x16"} {
		t.Fatalf("splitLabeled(%q) = %q %v", name, base, pairs)
	}
	if b, p := splitLabeled("plain/name"); b != "plain/name" || p != nil {
		t.Fatalf("unlabeled name mangled: %q %v", b, p)
	}
}

// TestWriteOpenMetrics: counters gain _total, le bounds are canonical
// floats, buckets are cumulative, exemplars render with trace IDs, and
// the document ends with # EOF.
func TestWriteOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve/requests").Add(3)
	reg.Gauge("serve/queue_depth").Set(1)
	h := reg.Histogram("serve/e2e_ns")
	tid := trace.NewTraceID().String()
	h.ObserveExemplar(3*time.Nanosecond, tid) // bucket [2,4)
	h.Observe(3 * time.Nanosecond)

	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE serve_requests counter\nserve_requests_total 3\n",
		"# TYPE serve_queue_depth gauge\nserve_queue_depth 1\n",
		"# TYPE serve_e2e_ns histogram\n",
		`serve_e2e_ns_bucket{le="2.0"} 0`,
		fmt.Sprintf(`serve_e2e_ns_bucket{le="4.0"} 2 # {trace_id="%s"} 3 `, tid),
		`serve_e2e_ns_bucket{le="+Inf"} 2`,
		"serve_e2e_ns_sum 6\n",
		"serve_e2e_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("openmetrics missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("openmetrics does not end with # EOF:\n%s", out[len(out)-40:])
	}
	// Cumulative le buckets must be monotonic.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "serve_e2e_ns_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(strings.Fields(line)[1], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

// TestMetricsContentNegotiation exercises the /metrics endpoint's format
// selection: JSON by default, OpenMetrics via ?format=openmetrics or an
// Accept header naming application/openmetrics-text. Any other format
// value, or an Accept header naming only text/plain, gets JSON.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine/alignments").Add(7)
	srv, err := StartDebug("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr + "/metrics"

	get := func(url, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get(base, "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default Content-Type = %q, want JSON", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Counters["engine/alignments"] != 7 {
		t.Errorf("default body not a JSON snapshot: %v, %q", err, body)
	}

	for _, c := range []struct{ format, accept string }{
		{"prom", ""},
		{"prometheus", ""},
		{"", "text/plain"},
	} {
		if _, ct = get(base+"?format="+c.format, c.accept); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("format %q Accept %q got %q, want JSON", c.format, c.accept, ct)
		}
	}

	for _, c := range []struct{ query, accept string }{
		{"?format=openmetrics", ""},
		{"", "application/openmetrics-text; version=1.0.0"},
	} {
		body, ct = get(base+c.query, c.accept)
		if ct != OpenMetricsContentType || !strings.Contains(body, "engine_alignments_total 7\n") ||
			!strings.HasSuffix(body, "# EOF\n") {
			t.Errorf("query %q Accept %q got %q:\n%s", c.query, c.accept, ct, body)
		}
	}
	// An explicit ?format wins over Accept.
	if _, ct = get(base+"?format=json", "application/openmetrics-text"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("format=json got %q", ct)
	}
}

// TestTraceByIDEndpoint exercises GET /trace/{id}: the span tree with
// its drop count, and the error paths.
func TestTraceByIDEndpoint(t *testing.T) {
	col := trace.NewCollector(4, 8)
	rec := col.Rec(trace.NewTraceID())
	root := rec.Start(trace.SpanID{}, "request")
	child := rec.Start(root.ID(), "engine")
	child.End()
	root.End()

	srv, err := StartDebug("127.0.0.1:0", NewRegistry(), col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := fmt.Sprintf("http://%s/trace/", srv.Addr)

	resp, err := http.Get(base + rec.TraceID().String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		TraceID string           `json:"trace_id"`
		Dropped uint64           `json:"dropped"`
		Spans   []trace.SpanJSON `json:"spans"`
		Tree    []*trace.Node    `json:"tree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != rec.TraceID().String() || len(doc.Spans) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Tree) != 1 || doc.Tree[0].Name != "request" ||
		len(doc.Tree[0].Children) != 1 || doc.Tree[0].Children[0].Name != "engine" {
		t.Errorf("tree wrong: %+v", doc.Tree)
	}

	for path, want := range map[string]int{
		"not-a-trace-id":            http.StatusBadRequest,
		trace.NewTraceID().String(): http.StatusNotFound,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
