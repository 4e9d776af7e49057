package parallel

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/dessim"
	"repro/internal/obs/trace"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
	"repro/internal/triangle"
)

var proteinParams = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

// Strict mode must produce bit-identical results to the sequential
// algorithm for any worker count.
func TestStrictMatchesSequential(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		q := seq.SyntheticTitin(160, seed)
		cfg := topalign.Config{Params: proteinParams, NumTops: 8}
		want, err := topalign.Find(q.Codes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := Find(q.Codes, cfg, Config{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			assertSameTops(t, got.Tops, want.Tops)
		}
	}
}

func TestStrictMatchesSequentialGroupMode(t *testing.T) {
	q := seq.SyntheticTitin(140, 1)
	cfg := topalign.Config{Params: proteinParams, NumTops: 6, GroupLanes: 4}
	want, err := topalign.Find(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Find(q.Codes, cfg, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, got.Tops, want.Tops)
}

// Speculative mode may reorder equal-scoring tops but must uphold the
// core invariants: requested count, nonoverlap, and non-increasing
// scores... the last only within what speculation guarantees — each
// accepted score is a genuine alignment score under the triangle at
// acceptance, so we verify nonoverlap and score-set plausibility.
func TestSpeculativeInvariants(t *testing.T) {
	q := seq.SyntheticTitin(200, 4)
	// One split per task: the 10% band below is calibrated for 199 tasks
	// under 6 workers. The 13 sixteen-lane groups a default lane count
	// makes of this input leave half the queue in flight at every
	// acceptance, and speculation then strays further (12% of runs
	// outside the band).
	cfg := topalign.Config{Params: proteinParams, NumTops: 10, GroupLanes: 1}
	res, err := Find(q.Codes, cfg, Config{Workers: 6, Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 10 {
		t.Fatalf("got %d tops, want 10", len(res.Tops))
	}
	seen := map[topalign.Pair]bool{}
	for _, top := range res.Tops {
		if top.Score <= 0 {
			t.Errorf("top %d has non-positive score %d", top.Index, top.Score)
		}
		for _, p := range top.Pairs {
			if seen[p] {
				t.Fatalf("pair %v reused: tops overlap", p)
			}
			seen[p] = true
		}
	}
	// Speculative and sequential runs find the same total alignment
	// signal (sum of scores) even if acceptance order differs slightly.
	seqRes, err := topalign.Find(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumSpec, sumSeq int64
	for i := range res.Tops {
		sumSpec += int64(res.Tops[i].Score)
		sumSeq += int64(seqRes.Tops[i].Score)
	}
	if diff := float64(sumSpec-sumSeq) / float64(sumSeq); diff < -0.1 || diff > 0.1 {
		t.Errorf("speculative score sum %d deviates more than 10%% from sequential %d", sumSpec, sumSeq)
	}
}

// With a single worker, speculative mode degenerates to the sequential
// algorithm exactly.
func TestSpeculativeSingleWorkerMatchesSequential(t *testing.T) {
	q := seq.SyntheticTitin(130, 6)
	cfg := topalign.Config{Params: proteinParams, NumTops: 7}
	want, err := topalign.Find(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Find(q.Codes, cfg, Config{Workers: 1, Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, got.Tops, want.Tops)
}

// The paper measures up to 8.4% more alignments from speculation. Check
// the overhead stays within a loose multiple of that on our workloads.
func TestSpeculationOverheadBounded(t *testing.T) {
	q := seq.SyntheticTitin(200, 8)
	seqC, parC := &stats.Counters{}, &stats.Counters{}
	cfgSeq := topalign.Config{Params: proteinParams, NumTops: 10, Counters: seqC}
	cfgPar := topalign.Config{Params: proteinParams, NumTops: 10, Counters: parC}
	if _, err := topalign.Find(q.Codes, cfgSeq); err != nil {
		t.Fatal(err)
	}
	if _, err := Find(q.Codes, cfgPar, Config{Workers: 8, Speculative: true}); err != nil {
		t.Fatal(err)
	}
	seqA := seqC.Snapshot().Alignments
	parA := parC.Snapshot().Alignments
	// engine/spec_waste counts the realignments whose triangle advanced
	// under them: a subset of the alignments made, none sequentially.
	if w := parC.Snapshot().SpecWaste; w < 0 || w > parA {
		t.Errorf("spec waste %d outside [0, %d alignments]", w, parA)
	} else {
		t.Logf("spec waste: %d of %d alignments", w, parA)
	}
	if w := seqC.Snapshot().SpecWaste; w != 0 {
		t.Errorf("sequential run reports %d wasted realignments", w)
	}
	overhead := float64(parA-seqA) / float64(seqA)
	if overhead > 0.5 {
		t.Errorf("speculation overhead %.1f%% (seq %d, spec %d alignments) exceeds 50%%",
			100*overhead, seqA, parA)
	}
	t.Logf("speculation overhead: %.2f%% (paper reports up to 8.4%%)", 100*overhead)
}

func TestMinScoreStopsEarly(t *testing.T) {
	q := seq.Random(seq.Protein, 100, 3)
	cfg := topalign.Config{Params: proteinParams, NumTops: 20, MinScore: 10000}
	res, err := Find(q.Codes, cfg, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 0 {
		t.Errorf("got %d tops despite impossible MinScore", len(res.Tops))
	}
}

func TestQueueExhaustion(t *testing.T) {
	s := seq.DNA.MustEncode("ATAT")
	cfg := topalign.Config{
		Params:  align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap},
		NumTops: 50,
	}
	res, err := Find(s, cfg, Config{Workers: 3, Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) == 0 || len(res.Tops) >= 50 {
		t.Errorf("got %d tops", len(res.Tops))
	}
}

func TestConfigErrors(t *testing.T) {
	s := seq.DNA.MustEncode("ACGT")
	if _, err := Find(s, topalign.Config{}, Config{}); err == nil {
		t.Error("invalid topalign config accepted")
	}
}

// TestStrictDifferential is the full differential battery: across
// several seeds, strict shared-memory runs and strict in-process cluster
// runs must be bit-identical to the sequential algorithm — the same tops
// (split, score, every pair) in the same acceptance order, which is the
// scheduler-visible record of the run: agreement means the parallel
// engines made the same decisions in the same order, not just that they
// converged on the same answer. The cluster master accepts only with
// nothing in flight, so its strict runs report no speculation waste (the
// shared-memory scheduler may: its workers realign during a traceback).
func TestStrictDifferential(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		q := seq.SyntheticTitin(140, seed)
		cfg := topalign.Config{Params: proteinParams, NumTops: 6}
		want, err := topalign.Find(q.Codes, cfg)
		if err != nil {
			t.Fatal(err)
		}

		got, err := Find(q.Codes, cfg, Config{Workers: 4})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		assertSameTops(t, got.Tops, want.Tops)

		cluCfg := cfg
		cluCfg.Counters = &stats.Counters{}
		cres, err := cluster.RunLocal(q.Codes,
			cluster.Config{Top: cluCfg},
			cluster.LocalSpec{Slaves: 2, ThreadsPerSlave: 2})
		if err != nil {
			t.Fatalf("seed %d cluster: %v", seed, err)
		}
		assertSameTops(t, cres.Tops, want.Tops)
		if w := cres.Stats.SpecWaste; w != 0 {
			t.Errorf("seed %d cluster: strict run reports %d wasted realignments", seed, w)
		}
	}

	// Process-sized runs, the default analysis's engine, over the gate:
	// under GOMAXPROCS 1 (the one-core loop), 2 and 4, at one, eight and
	// sixteen lanes, on a protein and a DNA input, the same tops as the
	// one-core loop. The dessim trace is recorded by that loop whatever
	// the core count. CI runs this under -race at GOMAXPROCS 1, 2 and 4.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tandem := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 40, Copies: 10, FlankLen: 60,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.01, IndelExt: 0.5}, Seed: 3})
	dna := align.Params{Exch: scoring.DNAUnit, Gap: scoring.DefaultGap(scoring.DNAUnit)}
	for _, in := range []struct {
		name  string
		codes []byte
		p     align.Params
	}{
		{"titin-700", seq.SyntheticTitin(700, 1).Codes, proteinParams},
		{"dna-tandem", tandem.Codes, dna},
	} {
		for _, lanes := range []int{1, 8, 16} {
			cfg := topalign.Config{Params: in.p, NumTops: 12, GroupLanes: lanes}
			want, err := topalign.Find(in.codes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				workers := spansNamed("parallel.worker", func(rec *trace.Recorder) {
					traced := cfg
					traced.Spans = rec
					got, err := Find(in.codes, traced, Config{})
					if err != nil {
						t.Fatalf("%s lanes %d GOMAXPROCS %d: %v", in.name, lanes, procs, err)
					}
					assertSameTops(t, got.Tops, want.Tops)
				})
				if procs > 1 && workers != procs || procs == 1 && workers != 0 {
					t.Errorf("%s lanes %d GOMAXPROCS %d: %d workers, want one per core (the loop alone on one)", in.name, lanes, procs, workers)
				}
			}
		}
		record := func(procs int) *dessim.Trace {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr, err := dessim.Record(in.codes, topalign.Config{Params: in.p, NumTops: 12})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		if !reflect.DeepEqual(record(4), record(1)) {
			t.Errorf("%s: dessim trace under GOMAXPROCS 4 differs from GOMAXPROCS 1's", in.name)
		}
	}
}

// TestStrictHammer stress-tests the reworked scheduler: many more
// workers than cores, scalar and 8-lane group tasks, across six seeds.
// Strict mode must stay bit-identical to the sequential algorithm under
// maximum contention on the queue, the targeted wakeups, and the atomic
// snapshot pointer. Run with -race this doubles as the data-race gate
// for the scratch-per-worker and snapState machinery.
func TestStrictHammer(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		q := seq.SyntheticTitin(180, seed)
		for _, lanes := range []int{1, 8} {
			cfg := topalign.Config{Params: proteinParams, NumTops: 8, GroupLanes: lanes}
			want, err := topalign.Find(q.Codes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{3, 16} {
				got, err := Find(q.Codes, cfg, Config{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d lanes %d workers %d: %v", seed, lanes, workers, err)
				}
				assertSameTops(t, got.Tops, want.Tops)
			}
		}
	}
}

func assertSameTops(t *testing.T, got, want []topalign.TopAlignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || got[i].Split != want[i].Split {
			t.Fatalf("top %d = (split %d, score %d), want (split %d, score %d)",
				i+1, got[i].Split, got[i].Score, want[i].Split, want[i].Score)
		}
		if len(got[i].Pairs) != len(want[i].Pairs) {
			t.Fatalf("top %d has %d pairs, want %d", i+1, len(got[i].Pairs), len(want[i].Pairs))
		}
		for j := range want[i].Pairs {
			if got[i].Pairs[j] != want[i].Pairs[j] {
				t.Fatalf("top %d pair %d = %v, want %v", i+1, j, got[i].Pairs[j], want[i].Pairs[j])
			}
		}
	}
}

// TestSpeculativeSnapshotsStayFrozen is triangle's snapshot isolation
// seen through the scheduler: speculative workers realign against the
// published clone while accept sets the next alignment's pairs in the
// live triangle, whose row lists the clone shares. A bystander keeps
// every snapshot the scheduler publishes and re-reads them all for the
// whole run: none may ever answer differently. Under -race (CI runs this
// package so) a Set that wrote into a shared list is a reported race.
func TestSpeculativeSnapshotsStayFrozen(t *testing.T) {
	// a tandem array: the tops pass through the same rows again and again
	q := seq.Tandem(seq.TandemSpec{UnitLen: 24, Copies: 9, FlankLen: 15, Seed: 5,
		Profile: seq.MutationProfile{SubstRate: 0.1}})
	cfg := topalign.Config{Params: proteinParams, NumTops: 12, GroupLanes: 1}
	e, err := topalign.NewEngine(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &sched{e: e, queue: topalign.InitialQueue(e), spec: true}
	st.snap.Store(&snapState{tri: e.TriangleSnapshot()})
	st.cond = sync.NewCond(&st.mu)

	walk := func(tri *triangle.Triangle) (pairs []int) {
		m := tri.M()
		for i := 1; i < m; i++ {
			for j := tri.NextSet(i, 0, m+1); j >= 0; j = tri.NextSet(i, j+1, m+1) {
				pairs = append(pairs, i*(m+1)+j)
			}
		}
		return pairs
	}
	type held struct {
		tri   *triangle.Triangle
		pairs []int
	}
	seen := []held{{st.snap.Load().tri, nil}} // the empty triangle the run starts from
	stop, checked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(checked)
		for last := false; !last; {
			select {
			case <-stop:
				last = true // one more round: the final snapshot is published by now
			default:
			}
			if tri := st.snap.Load().tri; tri != seen[len(seen)-1].tri {
				seen = append(seen, held{tri, walk(tri)})
			}
			for k, h := range seen {
				if got := walk(h.tri); !slices.Equal(got, h.pairs) {
					t.Errorf("snapshot %d changed after it was published: %d pairs, was %d", k, len(got), len(h.pairs))
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.worker(topalign.NewScratch(), false)
		}()
	}
	wg.Wait()
	close(stop)
	<-checked
	if st.err != nil {
		t.Fatal(st.err)
	}
	final := seen[len(seen)-1]
	if len(seen) < 2 || !final.tri.Equal(e.Triangle()) || len(final.pairs) != e.Triangle().Count() {
		t.Errorf("held %d snapshots, the last with %d pairs; the run ended with %d tops and %d pairs",
			len(seen), len(final.pairs), e.NumTopsFound(), e.Triangle().Count())
	}
}

// engagedNow is how many goroutines of the process are engaged in engine
// work: it reserves every free place and gives them back.
func engagedNow() int32 {
	const many = 1 << 20
	n := topalign.Reserve(many)
	for i := int32(0); i < n; i++ {
		topalign.Release()
	}
	return many - 1 - n
}

// spansNamed runs fn with a fresh span recorder and counts the spans
// called name it recorded.
func spansNamed(name string, fn func(*trace.Recorder)) int {
	col := trace.NewCollector(0, 0)
	id := trace.NewTraceID()
	fn(col.Rec(id))
	spans, _, _ := col.Get(id)
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// holdRun starts Find over codes with pcfg and returns once two workers
// are inside a realignment, each held there. step lets the two go on;
// every realignment after theirs is held until finish, which then waits
// for the run and returns its error. calls counts the realignments begun.
func holdRun(codes []byte, pcfg Config) (calls *atomic.Int32, step func(), finish func() error) {
	calls = new(atomic.Int32)
	first, rest := make(chan struct{}), make(chan struct{})
	cfg := topalign.Config{Params: proteinParams, NumTops: 3, OnRealign: func(*topalign.Task, int) {
		if calls.Add(1) <= 2 {
			<-first
		} else {
			<-rest
		}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Find(codes, cfg, pcfg)
		done <- err
	}()
	for calls.Load() < 2 { // two workers are held, since a held one realigns nothing more
		runtime.Gosched()
	}
	var once sync.Once
	step = func() { once.Do(func() { close(first) }) }
	return calls, step, func() error {
		step()
		close(rest)
		return <-done
	}
}

// Places, at GOMAXPROCS 2. A process-sized run (Workers 0, the default
// analysis's engine) over the gate starts two workers; under it, one,
// which is the one-core loop and records no worker span. Beside a held
// Workers: 2 run it gets one, and a windowed run gets no helper (no
// topalign.lookahead span); once that run is over both get their second
// core back. Every run reports the one-core loop's tops. Then the
// retirement rows: with a run's two workers held inside a realignment, a
// third goroutine engages and the workers go on; a process-sized run's
// second worker gives its place up between tasks, the engaged count
// falling back to GOMAXPROCS, while a Workers: 2 run's two workers both
// realign again. The engaged count is back at its start after each row.
func TestWorkersTakePlaces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	start := engagedNow()
	over := seq.SyntheticTitin(500, 3).Codes  // (m³-m)/6 ≈ 20.8 M cells
	under := seq.SyntheticTitin(300, 3).Codes // ≈ 4.5 M
	windowed := func(rec *trace.Recorder) {
		e, err := topalign.NewEngine(under, topalign.Config{Params: proteinParams, NumTops: 3, Spans: rec})
		if err != nil {
			t.Fatal(err)
		}
		var tasks []*topalign.Task
		for r := 1; r < len(under); r++ {
			rect := align.Rect{Y0: 1, Y1: r, X0: r + 1, X1: len(under)}
			tasks = append(tasks, &topalign.Task{R: r, Score: topalign.Infinity, AlignedWith: -1, Win: &topalign.Window{Rect: rect, Bound: topalign.Infinity}})
		}
		if err := topalign.RunWindows(e, tasks); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		codes   []byte
		beside  bool // a Workers: 2 run holds both cores
		workers int  // parallel.worker spans of the process-sized run
		helpers bool // a windowed run starts topalign.lookahead spans
	}{
		{"over the gate", over, false, 2, true},
		{"under the gate", under, false, 0, true},
		{"beside a Workers 2 run", over, true, 0, false},
	} {
		var finish func() error
		if c.beside {
			_, _, finish = holdRun(over, Config{Workers: 2})
		}
		want, err := topalign.Find(c.codes, topalign.Config{Params: proteinParams, NumTops: 3})
		if err != nil {
			t.Fatal(err)
		}
		workers := spansNamed("parallel.worker", func(rec *trace.Recorder) {
			got, err := Find(c.codes, topalign.Config{Params: proteinParams, NumTops: 3, Spans: rec}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTops(t, got.Tops, want.Tops)
		})
		if workers != c.workers {
			t.Errorf("%s: %d worker spans, want %d", c.name, workers, c.workers)
		}
		if helpers := spansNamed("topalign.lookahead", windowed); (helpers > 0) != c.helpers {
			t.Errorf("%s: a windowed run started %d helpers", c.name, helpers)
		}
		if finish != nil {
			if err := finish(); err != nil {
				t.Fatal(err)
			}
		}
		if n := engagedNow(); n != start {
			t.Errorf("%s: %d goroutines engaged after the runs, want %d", c.name, n, start)
		}
	}
	for _, c := range []struct {
		name    string
		pcfg    Config
		retires bool
	}{
		{"process-sized", Config{}, true},
		{"Workers 2", Config{Workers: 2}, false},
	} {
		calls, step, finish := holdRun(over, c.pcfg)
		topalign.Engage() // a third goroutine
		step()
		deadline := time.Now().Add(10 * time.Second)
		for engagedNow() != start+2 && calls.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		retired := engagedNow() == start+2
		if retired != c.retires || retired && calls.Load() > 3 {
			t.Errorf("%s: %d goroutines engaged, %d realignments begun; a worker retired: %t, want %t", c.name, engagedNow()-start, calls.Load(), retired, c.retires)
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		topalign.Release()
		if n := engagedNow(); n != start {
			t.Errorf("%s: %d goroutines engaged after the run, want %d", c.name, n, start)
		}
	}
}
