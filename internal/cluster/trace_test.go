package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// TestClusterTraceEndToEnd runs a master and two workers over the real
// TCP transport with tracing on and checks the assembled trace: one
// cluster.run root on rank 0, dispatch spans for both slave ranks,
// slave-side job/kernel spans shipped back and re-based onto the
// master's timeline, and a critical-path attribution that reconciles
// exactly with the root.
func TestClusterTraceEndToEnd(t *testing.T) {
	q := seq.SyntheticTitin(300, 2)
	want, err := topalign.Find(q.Codes, topCfg(8))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	col := trace.NewCollector(0, 0)
	rec := col.Rec(trace.NewTraceID())

	addr := freeAddr(t)
	masterCh := make(chan mpi.Comm, 1)
	listenErr := make(chan error, 1)
	go func() {
		m, err := mpi.ListenTCP(addr, 3, 5*time.Second)
		if err != nil {
			listenErr <- err
			return
		}
		masterCh <- m
	}()
	time.Sleep(20 * time.Millisecond)

	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			w, err := mpi.DialTCP(addr, 5*time.Second)
			if err != nil {
				t.Errorf("worker dial: %v", err)
				return
			}
			defer w.Close()
			err = RunSlaveOpts(w, SlaveOptions{Threads: 2, Metrics: reg})
			if err != nil && !errors.Is(err, ErrMasterDown) {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	var master mpi.Comm
	select {
	case master = <-masterCh:
	case err := <-listenErr:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("master did not start")
	}

	cfg := Config{
		Top: topalign.Config{
			Params:   proteinParams,
			NumTops:  8,
			Counters: &stats.Counters{},
		},
		Metrics: reg,
		Spans:   rec,
	}
	res, err := RunMaster(master, q.Codes, cfg)
	master.Close()
	workers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, res.Tops, want.Tops)

	spans, dropped, ok := col.Get(rec.TraceID())
	if !ok {
		t.Fatal("trace missing from the collector")
	}
	if dropped != 0 {
		t.Fatalf("%d spans dropped by the per-trace bound", dropped)
	}

	byID := map[trace.SpanID]trace.Span{}
	byName := map[string][]trace.Span{}
	ranks := map[int32]bool{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
		ranks[sp.Rank] = true
	}

	runs := byName["cluster.run"]
	if len(runs) != 1 {
		t.Fatalf("%d cluster.run spans, want 1", len(runs))
	}
	run := runs[0]
	if run.Rank != 0 || !run.Parent.IsZero() {
		t.Errorf("cluster.run = rank %d parent %s, want rank 0 root", run.Rank, run.Parent)
	}

	// Work from both slave ranks must appear in the one trace: the
	// dispatch span on the master and the shipped job/kernel spans.
	for _, rank := range []int32{1, 2} {
		if !ranks[rank] {
			t.Errorf("no spans from rank %d", rank)
		}
	}
	dispatchRanks := map[int32]int{}
	for _, sp := range byName["cluster.dispatch"] {
		dispatchRanks[sp.Rank]++
		if sp.Parent != run.ID {
			t.Errorf("cluster.dispatch not parented under cluster.run: %+v", sp)
		}
	}
	if dispatchRanks[1] == 0 || dispatchRanks[2] == 0 {
		t.Errorf("dispatch spans per rank = %v, want both ranks", dispatchRanks)
	}

	jobs := byName["slave.job"]
	if len(jobs) == 0 {
		t.Fatal("no slave.job spans shipped back")
	}
	for _, job := range jobs {
		parent, ok := byID[job.Parent]
		if !ok || parent.Name != "cluster.dispatch" {
			t.Fatalf("slave.job parent is %q, want cluster.dispatch", parent.Name)
		}
		if job.Rank != parent.Rank {
			t.Errorf("slave.job rank %d under dispatch to rank %d", job.Rank, parent.Rank)
		}
	}
	if len(byName["slave.kernel"]) == 0 {
		t.Fatal("no slave.kernel spans shipped back")
	}
	for _, k := range byName["slave.kernel"] {
		if p, ok := byID[k.Parent]; !ok || p.Name != "slave.job" {
			t.Errorf("slave.kernel not parented under slave.job: %+v", k)
		}
	}

	// Re-basing: slave spans must land inside the run's
	// window (loopback one-way latency is the residual error; allow a
	// generous margin).
	const slack = int64(5 * time.Millisecond)
	for _, sp := range spans {
		if sp.Rank <= 0 {
			continue
		}
		if sp.Start < run.Start-slack || sp.End() > run.End()+slack {
			t.Errorf("slave span %q [%d, %d] outside run window [%d, %d]",
				sp.Name, sp.Start, sp.End(), run.Start, run.End())
		}
	}

	// The attribution must reconcile exactly against the root and see
	// both communication and kernel time.
	rpt, err := trace.AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.RootName != "cluster.run" {
		t.Fatalf("critical-path root = %q", rpt.RootName)
	}
	if rpt.SumNS != rpt.RootNS {
		t.Errorf("attribution sum %d != root %d", rpt.SumNS, rpt.RootNS)
	}
	cats := map[string]int64{}
	for _, e := range rpt.Entries {
		cats[e.Category] = e.NS
	}
	if cats[trace.CatComm] == 0 {
		t.Error("no time attributed to comm despite TCP dispatches")
	}
	if cats[trace.CatKernel] == 0 {
		t.Error("no time attributed to kernels")
	}
}

// TestLocalClusterTraced runs the in-process cluster (the serving
// layer's backend) with tracing on: re-basing uses offset = master now
// - slave now, exact over channels, and every slave span must land
// inside the run window.
func TestLocalClusterTraced(t *testing.T) {
	q := seq.SyntheticTitin(150, 3)
	col := trace.NewCollector(0, 0)
	rec := col.Rec(trace.NewTraceID())
	res, err := RunLocal(q.Codes, Config{Top: topCfg(6), Spans: rec},
		LocalSpec{Slaves: 2, ThreadsPerSlave: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := topalign.Find(q.Codes, topCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, res.Tops, want.Tops)

	spans, _, ok := col.Get(rec.TraceID())
	if !ok {
		t.Fatal("trace missing")
	}
	var run *trace.Span
	ranks := map[int32]bool{}
	for i, sp := range spans {
		ranks[sp.Rank] = true
		if sp.Name == "cluster.run" {
			run = &spans[i]
		}
	}
	if run == nil {
		t.Fatal("no cluster.run span")
	}
	if !ranks[1] || !ranks[2] {
		t.Fatalf("ranks seen = %v, want slave ranks 1 and 2", ranks)
	}
	const slack = int64(time.Millisecond)
	for _, sp := range spans {
		if sp.Rank <= 0 {
			continue
		}
		if sp.Start < run.Start-slack || sp.End() > run.End()+slack {
			t.Errorf("slave span %q [%d, %d] outside run window [%d, %d]",
				sp.Name, sp.Start, sp.End(), run.Start, run.End())
		}
	}
	rpt, err := trace.AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.SumNS != rpt.RootNS {
		t.Errorf("attribution sum %d != root %d", rpt.SumNS, rpt.RootNS)
	}
}
