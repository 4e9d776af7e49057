package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"
	"time"

	"repro"
)

var tinyConfig = runConfig{Seed: 7, Seconds: 0.25, Scale: tinyScale}

// Every declared metric has a well-formed name and unit, and is
// declared once.
func TestMetricDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(endToEnd), len(perLayer))
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// has, under the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(sp.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(ws))
	}
	for i, w := range ws {
		if sp.Workloads[i].Name != w.Name || sp.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, sp.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(sp.EndToEnd), len(endToEnd))
	}
	// The driver allows no bound above 0.25 and wants setup_s to have the
	// largest. The issue's 0.15 did not hold on this host: the driver
	// refused the benchmark for it (README, "Measured noise").
	var setupBound float64
	for i, d := range endToEnd {
		e := sp.EndToEnd[i]
		if e.metricDef != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, e.metricDef, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setupBound = e.Bound
		}
	}
	if setupBound == 0 {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, e := range sp.EndToEnd {
		if e.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", e.Name, e.Bound, setupBound)
		}
	}
	for _, e := range sp.EndToEnd {
		if e.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", e.Name, e.Bound, setupBound)
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(sp.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if sp.PerLayer[i] != d {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, sp.PerLayer[i], d)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// Every workload, in both passes at the tiny scale, emits exactly the
// declared metric names, fails no operation, and (traced) records
// well-formed span trees: the run itself checks those and counts a
// malformed tree as a failure.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig
			cfg.Trace = trace
			r := w.Run(cfg)
			if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v: %v", w.Name, trace, r.Attempted, r.Failed, r.Correct, r.Errors)
			}
			want := metricSet(trace)
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(r.Metrics), len(want))
			}
			measured := 0
			for _, d := range want {
				v, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, d.Name, v.Value)
				}
				if v.N > 0 {
					measured++
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
				// A batch workload restates solve_s for the five metrics
				// it cannot measure; serve-mixed restates its hit median
				// for hit_p99_ms, serve-warm its miss median for
				// miss_p95_ms.
				want := ""
				switch {
				case trace:
				case r.Metrics["rps"].AliasOf != "" && d.Name != "setup_s" && d.Name != "solve_s":
					want = "solve_s"
				case w.Name == "serve-mixed" && d.Name == "hit_p99_ms":
					want = "hit_p50_ms"
				case w.Name == "serve-warm" && d.Name == "miss_p95_ms":
					want = "miss_p50_ms"
				}
				if v.AliasOf != want {
					t.Errorf("%s: %s restates %q, want %q", w.Name, d.Name, v.AliasOf, want)
				}
			}
			if trace && measured < 15 {
				t.Errorf("%s: only %d per-layer metrics measured", w.Name, measured)
			}
		}
	}
}

// The same seed gives the same inputs, and a batch workload has
// familySize of them.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range batchWorkloads() {
		a, b, c := w.Input(tinyScale, 3), w.Input(tinyScale, 3), w.Input(tinyScale, 4)
		if a.String() != b.String() {
			t.Errorf("%s: seed 3 gave two different inputs", w.Name)
		}
		if a.String() == c.String() {
			t.Errorf("%s: seeds 3 and 4 gave the same input", w.Name)
		}
		if d := w.Input(tinyScale, 3+familySize); a.String() != d.String() {
			t.Errorf("%s: seeds 3 and %d are one family member and gave different inputs", w.Name, 3+familySize)
		}
	}
	for seed, want := range map[uint64]int{0: familySize - 1, 1: 0, familySize: familySize - 1, familySize + 1: 0} {
		if got := member(seed); got != want {
			t.Errorf("member(%d) = %d, want %d", seed, got, want)
		}
	}
	if a, b := newRequest(tinyScale, 3, 5, true), newRequest(tinyScale, 3, 5, true); string(a.Body) != string(b.Body) {
		t.Error("hot request 5 of seed 3 differs between two builds")
	}
}

// A deliberately corrupted report raises fail_frac.
func TestCorruptedReportFails(t *testing.T) {
	w := batchWorkloads()[0]
	p, err := w.setup(tinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *repro.Report {
		rep := *p.Report
		rep.Tops = append([]repro.TopAlignment(nil), p.Report.Tops...)
		for i := range rep.Tops {
			rep.Tops[i].Pairs = append([]repro.Pair(nil), rep.Tops[i].Pairs...)
		}
		return &rep
	}
	corruptions := map[string]func(rep *repro.Report){
		"score off by one":     func(rep *repro.Report) { rep.Tops[0].Score++ },
		"pair repeated":        func(rep *repro.Report) { rep.Tops[0].Pairs[1] = rep.Tops[0].Pairs[0] },
		"top duplicated":       func(rep *repro.Report) { rep.Tops[1] = rep.Tops[0] },
		"order swapped":        func(rep *repro.Report) { rep.Tops[0], rep.Tops[1] = rep.Tops[1], rep.Tops[0] },
		"pair across no split": func(rep *repro.Report) { rep.Tops[0].Split = len(p.Seq.Codes) },
		"all tops dropped":     func(rep *repro.Report) { rep.Tops = nil },
	}
	for name, corrupt := range corruptions {
		rep := clone()
		corrupt(rep)
		if name != "order swapped" || rep.Tops[0].Score != rep.Tops[1].Score {
			if err := validateTops(rep.Tops, p.Params, p.Seq.Codes); err == nil {
				t.Errorf("%s: structural validator accepted it", name)
			}
		}
		r := &Run{}
		if p.check(r, rep, nil) || r.Failed != 1 || r.Attempted != 1 {
			t.Errorf("%s: check passed it (attempted %d, failed %d)", name, r.Attempted, r.Failed)
		}
	}
	r := &Run{}
	if !p.check(r, clone(), nil) || r.Failed != 0 {
		t.Errorf("an untouched report failed the check: %v", r.Errors)
	}
}

// A served body that differs from the one computed for its key is a
// failed operation.
func TestServeVerification(t *testing.T) {
	params, err := scoringModel("")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := startServer(serveWorkloads()[0].Config(tinyScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ts.stop() //nolint:errcheck // test teardown
	c := newClients(1, ts.URL, tinyScale, 7, params)[0]
	defer c.close()
	req := newRequest(tinyScale, 7, 0, true)

	r := &Run{}
	if prewarm(r, []*client{c}, []*analyzeRequest{req}); r.Failed != 0 || req.Report == nil || req.Digest == "" {
		t.Fatalf("pre-warm: %v, report %d bytes, digest %q", r.Errors, len(req.Report), req.Digest)
	}
	status, body, err := c.post(req.Body)
	if kind, msg, _, _ := c.verify(req, status, body, err); kind != opHit {
		t.Fatalf("second request: kind %d %s", kind, msg)
	}
	tampered := append([]byte(nil), body...)
	tampered[len(tampered)/2] ^= 1
	if kind, _, _, _ := c.verify(req, status, tampered, nil); kind != opFailed {
		t.Errorf("a tampered hit verified as kind %d", kind)
	}
	computedAgain := bytes.Replace(body, []byte(`"cache":"hit"`), []byte(`"cache":"miss"`), 1)
	if kind, _, _, _ := c.verify(req, status, computedAgain, nil); kind != opFailed {
		t.Errorf("a hot key computed after pre-warm verified as kind %d", kind)
	}
	if kind, _, _, _ := c.verify(req, 503, nil, nil); kind != opShed {
		t.Errorf("a 503 verified as kind %d", kind)
	}
	if _, _, err := splitEnvelope([]byte(`{"error":"x"}`)); err == nil {
		t.Error("splitEnvelope accepted an error body")
	}
}

func TestSpanTrees(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// root [0,100] with a.x [10,30] (child a.y [15,20]) and b.z [30,70].
	spans := []span{
		{Name: "root", Start: 0, End: ms(100), Parent: -1},
		{Name: "a.x", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "a.y", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "b.z", Start: ms(30), End: ms(70), Parent: 0},
	}
	if err := wellFormed(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{ms(40), ms(15), ms(5), ms(40)} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
		if self[i] < 0 {
			t.Errorf("negative self time %v", self[i])
		}
	}
	perLayer, roots := layerSelf(spans)
	var sum time.Duration
	for _, d := range perLayer {
		sum += d
	}
	if sum != roots || roots != ms(100) {
		t.Errorf("self times sum to %v, roots to %v", sum, roots)
	}
	if perLayer["a"] != ms(20) || perLayer["b"] != ms(40) || perLayer["root"] != ms(40) {
		t.Errorf("per layer %v", perLayer)
	}

	for name, bad := range map[string][]span{
		"child outside parent": {{Name: "r", End: ms(10), Parent: -1}, {Name: "c", Start: ms(5), End: ms(12), Parent: 0}},
		"unclosed":             {{Name: "r", Start: ms(5), End: -1, Parent: -1}},
		"trace mismatch":       {{Name: "r", End: ms(10), Parent: -1, Trace: 1}, {Name: "c", Start: ms(1), End: ms(2), Parent: 0, Trace: 2}},
		"parent after child":   {{Name: "c", Start: ms(1), End: ms(2), Parent: 1}, {Name: "r", End: ms(10), Parent: -1}},
	} {
		if wellFormed(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A live recorder, two clients merged.
	epoch := time.Now()
	a, b := newRecorder(epoch), newRecorder(epoch.Add(ms(1)))
	for _, rec := range []*recorder{a, b} {
		root := rec.start(0, -1, "request")
		child := rec.start(0, root, "http.roundtrip")
		rec.end(child)
		rec.end(root)
	}
	a.merge(b)
	if err := wellFormed(a.spans); err != nil || len(a.spans) != 4 || a.spans[3].Parent != 2 {
		t.Errorf("merged recorder: %v %+v", err, a.spans)
	}
	var none *recorder
	none.end(none.start(0, -1, "untraced")) // must not panic
}

func TestPercentilesAndQuartiles(t *testing.T) {
	oneToTen := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(oneToTen, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
	for _, c := range []struct {
		xs     []float64
		median float64
	}{{[]float64{4}, 4}, {[]float64{1, 9}, 5}, {[]float64{5, 1, 3}, 3}, {oneToTen, 5.5}} {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{oneToTen, 2.75, 8.25}, {[]float64{8, 1, 4, 2}, 1.25, 7}, {[]float64{3, 5}, 2.5, 5.5}, {[]float64{6}, 6, 6}} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(oneToTen); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// Throughput is the median over windows of verified responses per
// second; refused and failed requests and the request that finishes
// after the last window count for nothing.
func TestWindowMedian(t *testing.T) {
	l := &loadResult{Windows: 3, Len: time.Second, CPU: []float64{0, 1, 3, 6}}
	add := func(window, n, kind int) {
		for i := 0; i < n; i++ {
			l.Ops = append(l.Ops, op{End: time.Duration(window)*time.Second + time.Millisecond, Kind: kind})
		}
	}
	add(0, 10, opHit)
	add(1, 15, opHit)
	add(1, 5, opMiss)
	add(1, 7, opShed)
	add(2, 40, opHit)
	add(2, 3, opFailed)
	add(3, 9, opHit) // past the deadline
	rps, cpuPer := l.perWindow(nil)
	if median(rps) != 20 || len(rps) != 3 {
		t.Errorf("rps per window %v, want median 20", rps)
	}
	if want := []float64{0.1, 0.1, 0.075}; cpuPer[0] != want[0] || cpuPer[1] != want[1] || cpuPer[2] != want[2] {
		t.Errorf("cpu per response %v, want %v", cpuPer, want)
	}
	even, _ := l.perWindow(func(win int) bool { return win%2 == 0 })
	if len(even) != 2 || even[0] != 10 || even[1] != 40 {
		t.Errorf("even windows %v", even)
	}

	// Latency percentiles are taken per window; a window without a
	// response of the kind gives no sample.
	for i := range l.Ops {
		l.Ops[i].MS = float64(i%10 + 1)
	}
	p50, n := l.latency(opHit, 50)
	if len(p50) != 3 || n != 65 || p50[0] != 5 {
		t.Errorf("hit p50 per window %v over %d responses, want 3 windows, the first 5, over 65", p50, n)
	}
	if miss, n := l.latency(opMiss, 95); len(miss) != 1 || n != 5 || miss[0] != 10 {
		t.Errorf("miss p95 per window %v over %d responses, want [10] over 5", miss, n)
	}
}

func TestJudge(t *testing.T) {
	lower, higher := bound{Share: 0.10}, bound{Share: 0.10, Higher: true}
	runs := func(xs ...float64) side { return side{Vals: xs} }
	one := func(x, inRun float64) side { return side{Vals: []float64{x}, InRun: inRun} }
	for _, c := range []struct {
		name     string
		old, new side
		b        bound
		want     string
	}{
		{"steady, within bound", runs(100, 101, 99, 100), runs(104, 105, 103, 104), lower, verdictSame},
		{"steady, slower", runs(100, 101, 99, 100), runs(120, 121, 119, 120), lower, verdictWorse},
		{"steady, faster", runs(100, 101, 99, 100), runs(80, 81, 79, 80), lower, verdictBetter},
		{"throughput down", runs(100, 101, 99, 100), runs(80, 81, 79, 80), higher, verdictWorse},
		{"throughput up", runs(100, 101, 99, 100), runs(120, 121, 119, 120), higher, verdictBetter},
		{"noisy and interleaved", runs(80, 100, 120, 140), runs(90, 115, 130, 150), lower, verdictUnresolved},
		{"noisy but apart", runs(80, 100, 120, 140), runs(300, 320, 340, 360), lower, verdictWorse},
		{"single runs, tight", one(100, 0.02), one(103, 0.02), lower, verdictSame},
		{"single runs, tight, slower", one(100, 0.02), one(115, 0.02), lower, verdictWorse},
		{"single runs, loose", one(100, 0.30), one(112, 0.30), lower, verdictUnresolved},
		{"no old value", one(0, 0), one(5, 0), lower, verdictUnresolved},
	} {
		if got, _ := judge(c.old, c.new, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare refuses documents from different machines and counts a
// fail_frac increase as a regression.
func TestCompareDocs(t *testing.T) {
	bounds := make(map[string]bound)
	for _, d := range endToEnd {
		bounds[d.Name] = bound{Share: 0.10, Higher: d.Better == "higher"}
	}
	doc := func(scale float64, failed int) *Document {
		d := &Document{Env: Env{NProc: 2, KernelTier: "int16x16"}}
		for _, w := range workloads() {
			r := &Run{Workload: w.Name, Attempted: 100, Failed: failed, Metrics: make(map[string]Value)}
			for _, m := range endToEnd {
				v := 100.0
				if m.Name == "rps" {
					v *= scale
				}
				r.Metrics[m.Name] = Value{Value: v, N: 5, Spread: 0.01}
				if m.Name == "hit_p99_ms" { // a restated row is not judged
					r.Metrics[m.Name] = Value{Value: v * scale * scale, AliasOf: "solve_s"}
				}
			}
			d.Runs = append(d.Runs, r)
		}
		return d
	}
	if bad, err := compareDocs(doc(1, 0), doc(1.02, 0), bounds); err != nil || bad != 0 {
		t.Errorf("equal documents: %d regressions, %v", bad, err)
	}
	if bad, _ := compareDocs(doc(1, 0), doc(0.8, 0), bounds); bad != len(workloads()) {
		t.Errorf("throughput down 20%%: %d regressions, want one per workload", bad)
	}
	if bad, _ := compareDocs(doc(1, 0), doc(1.25, 0), bounds); bad != 0 {
		t.Errorf("throughput up 25%%: %d regressions, want none (restated rows are left out)", bad)
	}
	if bad, _ := compareDocs(doc(1, 0), doc(1, 1), bounds); bad != len(workloads()) {
		t.Errorf("fail_frac up: %d regressions, want one per workload", bad)
	}
	other := doc(1, 0)
	other.Env.NProc = 8
	if _, err := compareDocs(doc(1, 0), other, bounds); err == nil {
		t.Error("documents from different machines were compared")
	}
	other = doc(1, 0)
	other.Env.Commit = "abc1234"
	if _, err := compareDocs(doc(1, 0), other, bounds); err != nil {
		t.Errorf("documents differing only in commit were refused: %v", err)
	}
}

// A slice read beside a reference that ran at its nominal figures reports
// what it measured; beside one that ran at half speed, a rate twice and
// the times half of what the clock gave.
func TestScaledAgainstReference(t *testing.T) {
	for _, c := range []struct {
		ref                       refFigures
		rps, p50, p99             float64
		wantRPS, wantP50, wantP99 float64
	}{
		{refNominal, 30000, 0.05, 0.15, 30000, 0.05, 0.15},
		{refFigures{RPS: refNominal.RPS / 2, P50: refNominal.P50 * 2}, 15000, 0.10, 0.30, 30000, 0.05, 0.15},
		{refFigures{RPS: refNominal.RPS / 2, P50: refNominal.P50}, 15000, 0.05, 0.30, 30000, 0.05, 0.15},
	} {
		rps, p50, p99 := c.ref.scaled(c.rps, c.p50, c.p99)
		if math.Abs(rps-c.wantRPS) > 1e-9 || math.Abs(p50-c.wantP50) > 1e-12 || math.Abs(p99-c.wantP99) > 1e-12 {
			t.Errorf("%+v.scaled(%v, %v, %v) = %v, %v, %v, want %v, %v, %v", c.ref, c.rps, c.p50, c.p99, rps, p50, p99, c.wantRPS, c.wantP50, c.wantP99)
		}
	}
}

// The reference answers its own clients and nothing else.
func TestReferenceSlice(t *testing.T) {
	ref, err := startReference(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.stop()
	f, err := ref.slice(20 * time.Millisecond)
	if err != nil || f.RPS <= 0 || f.P50 <= 0 || ref.errs != 0 {
		t.Errorf("slice = %+v, %v with %d failed exchanges", f, err, ref.errs)
	}
}
