package trace

import (
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	hdr := sc.TraceParent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", hdr, len(hdr))
	}
	got, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("round-trip rejected %q", hdr)
	}
	if got != sc {
		t.Fatalf("round-trip = %+v, want %+v", got, sc)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.TraceParent()
	bad := []string{
		"",
		"00",
		valid[:54],       // truncated
		valid + "0",      // too long
		"ff" + valid[2:], // forbidden version
		"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span id
		strings.Replace(valid, "-", "_", 1),               // bad separator
		valid[:3] + "zz" + valid[5:],                      // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want reject", s)
		}
	}
	// Unknown (non-ff) versions are accepted per the forward-compat rule.
	if _, ok := ParseTraceParent("01" + valid[2:]); !ok {
		t.Error("version 01 rejected, want forward-compat accept")
	}
}

func TestParseIDs(t *testing.T) {
	tid := NewTraceID()
	if got, ok := ParseTraceID(tid.String()); !ok || got != tid {
		t.Errorf("trace id round-trip = %v/%v", got, ok)
	}
	sid := NewSpanID()
	if got, ok := ParseSpanID(sid.String()); !ok || got != sid {
		t.Errorf("span id round-trip = %v/%v", got, ok)
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Error("zero trace id accepted")
	}
	if _, ok := ParseSpanID("123"); ok {
		t.Error("short span id accepted")
	}
}

func TestNilSafety(t *testing.T) {
	// Every call below must be a no-op rather than a panic: untraced
	// requests run the exact same instrumented code with nil handles.
	var c *Collector
	if c.Now() != 0 || c.Len() != 0 {
		t.Error("nil collector not inert")
	}
	if _, _, ok := c.Get(NewTraceID()); ok {
		t.Error("nil collector Get ok")
	}
	r := c.Rec(NewTraceID())
	if r != nil {
		t.Fatal("nil collector returned a live recorder")
	}
	if !r.TraceID().IsZero() || r.Now() != 0 {
		t.Error("nil recorder not inert")
	}
	r.Add(Span{Name: "x"})
	a := r.Start(SpanID{}, "x")
	if a != nil {
		t.Fatal("nil recorder returned a live span")
	}
	if !a.ID().IsZero() {
		t.Error("nil active ID nonzero")
	}
	a.SetRank(3)
	a.SetName("y")
	a.SetArg(7)
	a.End()
	a.End()

	// A zero trace ID is equally inert on a live collector.
	if NewCollector(0, 0).Rec(TraceID{}) != nil {
		t.Error("zero trace id returned a live recorder")
	}
}

func TestCollectorSpanBound(t *testing.T) {
	col := NewCollector(4, 3)
	rec := col.Rec(NewTraceID())
	for i := 0; i < 5; i++ {
		rec.Add(Span{ID: NewSpanID(), Name: "s"})
	}
	spans, dropped, ok := col.Get(rec.TraceID())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(spans) != 3 {
		t.Errorf("retained %d spans, want 3", len(spans))
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	for _, sp := range spans {
		if sp.Trace != rec.TraceID() {
			t.Errorf("span not stamped with the trace id: %+v", sp)
		}
	}
	// The collector-wide total matches, and — unlike the per-trace
	// count — survives eviction of the trace that dropped.
	if got := col.DroppedTotal(); got != 2 {
		t.Errorf("DroppedTotal = %d, want 2", got)
	}
	rec2 := col.Rec(NewTraceID())
	for i := 0; i < 4; i++ {
		rec2.Add(Span{ID: NewSpanID(), Name: "s"})
	}
	if got := col.DroppedTotal(); got != 3 {
		t.Errorf("DroppedTotal after second trace = %d, want 3", got)
	}
	if (*Collector)(nil).DroppedTotal() != 0 {
		t.Error("nil collector DroppedTotal != 0")
	}
}

func TestCollectorTraceEviction(t *testing.T) {
	col := NewCollector(2, 8)
	ids := []TraceID{NewTraceID(), NewTraceID(), NewTraceID()}
	for _, id := range ids {
		col.Rec(id).Add(Span{ID: NewSpanID(), Name: "s"})
	}
	if col.Len() != 2 {
		t.Fatalf("retained %d traces, want 2", col.Len())
	}
	if _, _, ok := col.Get(ids[0]); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range ids[1:] {
		if _, _, ok := col.Get(id); !ok {
			t.Errorf("trace %s evicted, want retained", id)
		}
	}
	// Re-requesting a live trace must not evict anything.
	col.Rec(ids[1])
	if _, _, ok := col.Get(ids[2]); !ok {
		t.Error("Rec of an existing trace evicted a sibling")
	}
}

func TestActiveLifecycle(t *testing.T) {
	col := NewCollector(0, 0)
	rec := col.Rec(NewTraceID())
	root := rec.Start(SpanID{}, "request")
	root.SetRank(-1)
	root.SetArg(42)
	child := rec.Start(root.ID(), "engine")
	child.SetName("engine.renamed")
	child.End()
	child.End() // idempotent: only the first call records
	root.End()

	spans, _, _ := col.Get(rec.TraceID())
	if len(spans) != 2 {
		t.Fatalf("%d spans recorded, want 2 (End must be idempotent)", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	r, ok := byName["request"]
	if !ok || !r.Parent.IsZero() || r.Rank != -1 || r.Arg != 42 {
		t.Errorf("root span wrong: %+v", r)
	}
	c, ok := byName["engine.renamed"]
	if !ok || c.Parent != r.ID {
		t.Errorf("child span wrong: %+v", c)
	}
	if c.Dur < 0 || r.Dur < c.Dur {
		t.Errorf("durations inconsistent: root %d, child %d", r.Dur, c.Dur)
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	tid := NewTraceID()
	in := []Span{
		{Trace: tid, ID: NewSpanID(), Name: "slave.job", Rank: 2, Start: 100, Dur: 50, Arg: 7},
		{Trace: tid, ID: NewSpanID(), Parent: NewSpanID(), Name: "slave.kernel", Rank: 2, Start: -5, Dur: 1 << 40},
		{Trace: tid, ID: NewSpanID(), Name: "", Rank: -1, Start: 0, Dur: 0, Arg: -9},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("span %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Empty batches round-trip too (an untraced job ships nothing, but
	// a traced job with zero children is legal).
	if out, err := DecodeSpans(EncodeSpans(nil)); err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestSpanCodecRejects(t *testing.T) {
	good := EncodeSpans([]Span{{ID: NewSpanID(), Name: "x", Start: 1, Dur: 2}})
	bad := [][]byte{
		nil,
		[]byte("OBT"),
		[]byte("OBXX\x00\x00\x00\x00"),
		good[:len(good)-1], // truncated name
		append(good, 0),    // trailing byte
		append([]byte("OBT1"), 0xff, 0xff, 0xff, 0xff), // absurd count
	}
	for i, b := range bad {
		if _, err := DecodeSpans(b); err == nil {
			t.Errorf("case %d: decode accepted malformed input", i)
		}
	}
}

func TestBuildTreeRebasesAndOrders(t *testing.T) {
	rootID, aID, bID := NewSpanID(), NewSpanID(), NewSpanID()
	spans := []Span{
		{ID: bID, Parent: rootID, Name: "b", Start: 1500, Dur: 100},
		{ID: rootID, Name: "root", Start: 1000, Dur: 900},
		{ID: aID, Parent: rootID, Name: "a", Start: 1100, Dur: 200},
		{ID: NewSpanID(), Parent: NewSpanID(), Name: "orphan", Start: 1200, Dur: 10},
	}
	roots := BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("%d roots, want 2 (root + orphan)", len(roots))
	}
	if roots[0].Name != "root" || roots[0].StartNS != 0 {
		t.Errorf("first root = %q start %d, want root at 0", roots[0].Name, roots[0].StartNS)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" {
		t.Fatalf("children wrong: %+v", kids)
	}
	if kids[0].StartNS != 100 || kids[1].StartNS != 500 {
		t.Errorf("children not rebased: %d, %d", kids[0].StartNS, kids[1].StartNS)
	}
}

func TestCriticalPathReconciles(t *testing.T) {
	// Root 0..1000; queue 0..200; engine 200..900 with two overlapping
	// kernel children (concurrency must not inflate the sum) and one
	// child skewed past the engine's end (must be clamped).
	rootID, qID, eID := NewSpanID(), NewSpanID(), NewSpanID()
	spans := []Span{
		{ID: rootID, Name: "request", Start: 0, Dur: 1000},
		{ID: qID, Parent: rootID, Name: "queue.wait", Start: 0, Dur: 200},
		{ID: eID, Parent: rootID, Name: "engine", Start: 200, Dur: 700},
		{ID: NewSpanID(), Parent: eID, Name: "parallel.worker", Start: 250, Dur: 400},
		{ID: NewSpanID(), Parent: eID, Name: "parallel.worker", Start: 300, Dur: 400},
		{ID: NewSpanID(), Parent: eID, Name: "slave.kernel.wasted", Start: 850, Dur: 200}, // clamped to 850..900
	}
	rpt, err := AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.RootName != "request" || rpt.RootNS != 1000 {
		t.Fatalf("root = %q/%d", rpt.RootName, rpt.RootNS)
	}
	if rpt.SumNS != rpt.RootNS {
		t.Fatalf("sum %d != root %d: attribution must reconcile exactly", rpt.SumNS, rpt.RootNS)
	}
	got := map[string]int64{}
	for _, e := range rpt.Entries {
		got[e.Category] = e.NS
	}
	want := map[string]int64{
		CatQueue:     200, // queue.wait
		CatKernel:    450, // workers 250..650 and 650..700 exclusive
		CatSpecWaste: 50,  // wasted kernel clamped into 850..900
		CatDispatch:  200, // engine self-time: 700 - 450 - 50
		CatServer:    100, // request self-time: 900..1000
	}
	for cat, ns := range want {
		if got[cat] != ns {
			t.Errorf("%s = %d, want %d (all: %+v)", cat, got[cat], ns, got)
		}
	}
	if rpt.Orphans != 0 {
		t.Errorf("orphans = %d, want 0", rpt.Orphans)
	}
}

func TestCriticalPathPicksLongestRootAndCountsOrphans(t *testing.T) {
	spans := []Span{
		{ID: NewSpanID(), Name: "short", Start: 0, Dur: 10},
		{ID: NewSpanID(), Name: "request", Start: 0, Dur: 100},
		{ID: NewSpanID(), Parent: NewSpanID(), Name: "lost", Start: 5, Dur: 1},
	}
	rpt, err := AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.RootName != "request" {
		t.Errorf("root = %q, want the longest parentless span", rpt.RootName)
	}
	if rpt.Orphans != 2 {
		t.Errorf("orphans = %d, want 2", rpt.Orphans)
	}
	if _, err := AnalyzeCriticalPath(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestJSONRoundTripAndChrome(t *testing.T) {
	tid := NewTraceID()
	rootID := NewSpanID()
	in := []Span{
		{Trace: tid, ID: rootID, Name: "request", Rank: -1, Start: 10, Dur: 500, Arg: 12},
		{Trace: tid, ID: NewSpanID(), Parent: rootID, Name: "slave.job", Rank: 2, Start: 50, Dur: 100},
	}
	out := FromJSON(ToJSON(in))
	for i := range in {
		want := in[i]
		want.Trace = TraceID{} // the JSON form is scoped to one trace
		if out[i] != want {
			t.Errorf("span %d: %+v != %+v", i, out[i], want)
		}
	}

}

// An accept's own checkpointing pass is kernel time like the accept
// around it: an engine span holding an engine.accept with an
// engine.accept.pass child attributes both to the kernel.
func TestCriticalPathAcceptPassIsKernel(t *testing.T) {
	rootID, aID := NewSpanID(), NewSpanID()
	spans := []Span{
		{ID: rootID, Name: "engine", Start: 0, Dur: 100},
		{ID: aID, Parent: rootID, Name: "engine.accept", Start: 10, Dur: 60},
		{ID: NewSpanID(), Parent: aID, Name: "engine.accept.pass", Start: 20, Dur: 30},
	}
	rpt, err := AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rpt.Entries {
		if want := map[string]int64{CatKernel: 60, CatDispatch: 40}[e.Category]; e.NS != want {
			t.Errorf("%s = %d, want %d", e.Category, e.NS, want)
		}
	}
	if Category("engine.accept.pass") != CatKernel {
		t.Errorf("engine.accept.pass is %s, want %s", Category("engine.accept.pass"), CatKernel)
	}
}
