package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/obs/attrib"
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
			st.worker(topalign.NewScratch())
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

// Workers take places too: while a two-worker run is in flight at
// GOMAXPROCS 2, the sequential loop of another analysis gets no helper
// beside it — it bills no helper CPU — and once the run is over the
// workers' places are given back, so the same analysis gets its helper.
func TestWorkersTakePlaces(t *testing.T) {
	if !attrib.ThreadCPUSupported() {
		t.Skip("no per-thread CPU clock on this platform")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	codes := seq.SyntheticTitin(900, 3).Codes
	helperCPU := func() int64 {
		c := &stats.Counters{}
		if _, err := topalign.Find(codes, topalign.Config{Params: proteinParams, NumTops: 3, Counters: c}); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot().CPUNanos // the loop meters nothing itself: this is its helpers'
	}
	var inside atomic.Int32
	hold := make(chan struct{})
	cfg := topalign.Config{Params: proteinParams, NumTops: 3, OnRealign: func(*topalign.Task, int) {
		inside.Add(1)
		<-hold
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Find(codes, cfg, Config{Workers: 2})
		done <- err
	}()
	for inside.Load() < 2 { // both workers are in a realignment
		runtime.Gosched()
	}
	if cpu := helperCPU(); cpu != 0 {
		t.Errorf("beside two running workers the loop's helpers billed %d ns, want none started", cpu)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cpu := helperCPU(); cpu == 0 {
		t.Error("after the workers finished the loop got no helper: their places were not given back")
	}
}
