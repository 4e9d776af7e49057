package cluster

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

var proteinParams = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

func topCfg(tops int) topalign.Config {
	return topalign.Config{Params: proteinParams, NumTops: tops}
}

// Strict-mode cluster runs must be bit-identical to the sequential
// algorithm, for various cluster shapes.
func TestClusterStrictMatchesSequential(t *testing.T) {
	q := seq.SyntheticTitin(150, 3)
	want, err := topalign.Find(q.Codes, topCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []LocalSpec{
		{Slaves: 1, ThreadsPerSlave: 1},
		{Slaves: 1, ThreadsPerSlave: 2},
		{Slaves: 3, ThreadsPerSlave: 1},
		{Slaves: 4, ThreadsPerSlave: 2},
	} {
		got, err := RunLocal(q.Codes, Config{Top: topCfg(6)}, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		assertSameTops(t, got.Tops, want.Tops)
	}
}

// One worker leaves a scheduler nothing to reorder: a strict cluster of
// one single-threaded slave and the shared-memory scheduler with one
// worker must do exactly the sequential run's work, and report it — the
// slave's operations are counted from the topalign.Work it ships, by the
// call the local drivers make. (Shadow ends used to be dropped on the
// slave: cluster runs reported 0.)
func TestStatsParityWithSequential(t *testing.T) {
	q := seq.SyntheticTitin(200, 4)
	work := func(res *topalign.Result, err error) stats.Snapshot {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.AlignLatency.Count != s.Alignments {
			t.Errorf("latency histogram holds %d observations for %d alignments", s.AlignLatency.Count, s.Alignments)
		}
		s.AlignLatency, s.CPUNanos = obs.HistogramSnapshot{}, 0 // time, not work
		return s
	}
	for _, lanes := range []int{1, 16, 32} {
		cfg := func() topalign.Config {
			return topalign.Config{Params: proteinParams, NumTops: 8, GroupLanes: lanes, Counters: &stats.Counters{}}
		}
		want := work(topalign.Find(q.Codes, cfg()))
		if want.ShadowEnds == 0 || want.Realignments == 0 {
			t.Fatalf("lanes %d: sequential run %+v proves nothing: want shadow ends and realignments", lanes, want)
		}
		if got := work(RunLocal(q.Codes, Config{Top: cfg()}, LocalSpec{Slaves: 1, ThreadsPerSlave: 1})); !reflect.DeepEqual(got, want) {
			t.Errorf("lanes %d: cluster counted %+v, sequential %+v", lanes, got, want)
		}
		if got := work(parallel.Find(q.Codes, cfg(), parallel.Config{Workers: 1})); !reflect.DeepEqual(got, want) {
			t.Errorf("lanes %d: parallel counted %+v, sequential %+v", lanes, got, want)
		}
	}
}

func TestClusterGroupMode(t *testing.T) {
	q := seq.SyntheticTitin(120, 5)
	cfg := topalign.Config{Params: proteinParams, NumTops: 5, GroupLanes: 4}
	want, err := topalign.Find(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocal(q.Codes, Config{Top: cfg}, LocalSpec{Slaves: 2, ThreadsPerSlave: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, got.Tops, want.Tops)
}

func TestClusterSpeculativeInvariants(t *testing.T) {
	q := seq.SyntheticTitin(160, 7)
	cfg := topCfg(8)
	cfg.Counters = &stats.Counters{}
	res, err := RunLocal(q.Codes, Config{Top: cfg, Speculative: true},
		LocalSpec{Slaves: 3, ThreadsPerSlave: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 8 {
		t.Fatalf("got %d tops, want 8", len(res.Tops))
	}
	// Results that came back after the master's triangle advanced are
	// the speculation overhead: some of the alignments, never more.
	if w, a := res.Stats.SpecWaste, res.Stats.Alignments; w < 0 || w > a {
		t.Errorf("spec waste %d outside [0, %d alignments]", w, a)
	} else {
		t.Logf("spec waste: %d of %d alignments", w, a)
	}
	seen := map[topalign.Pair]bool{}
	for _, top := range res.Tops {
		if top.Score <= 0 {
			t.Errorf("top %d score %d", top.Index, top.Score)
		}
		for _, p := range top.Pairs {
			if seen[p] {
				t.Fatalf("pair %v reused", p)
			}
			seen[p] = true
		}
	}
}

func TestClusterMinScore(t *testing.T) {
	q := seq.Random(seq.Protein, 90, 2)
	cfg := topalign.Config{Params: proteinParams, NumTops: 10, MinScore: 10000}
	res, err := RunLocal(q.Codes, Config{Top: cfg}, LocalSpec{Slaves: 2, ThreadsPerSlave: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 0 {
		t.Errorf("got %d tops despite impossible MinScore", len(res.Tops))
	}
}

func TestClusterValidation(t *testing.T) {
	s := seq.DNA.MustEncode("ACGTACGT")
	if _, err := RunLocal(s, Config{Top: topCfg(1)}, LocalSpec{Slaves: 0}); err == nil {
		t.Error("zero slaves accepted")
	}
	if _, err := RunLocal(s, Config{Top: topalign.Config{}}, LocalSpec{Slaves: 1}); err == nil {
		t.Error("invalid topalign config accepted")
	}
}

// The same protocol over the TCP transport: a 3-rank world on loopback.
func TestClusterOverTCP(t *testing.T) {
	q := seq.SyntheticTitin(100, 4)
	want, err := topalign.Find(q.Codes, topCfg(4))
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	masterCh := make(chan mpi.Comm, 1)
	errCh := make(chan error, 1)
	go func() {
		m, err := mpi.ListenTCP(addr, 3, 5*time.Second)
		if err != nil {
			errCh <- err
			return
		}
		masterCh <- m
	}()
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := mpi.DialTCP(addr, 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer w.Close()
			if err := RunSlave(w, 2); err != nil {
				t.Errorf("slave: %v", err)
			}
		}()
	}
	var master mpi.Comm
	select {
	case master = <-masterCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("master did not start")
	}
	got, err := RunMaster(master, q.Codes, Config{Top: topCfg(4)})
	master.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameTops(t, got.Tops, want.Tops)
}

// A short run can finish before a slave has announced all its threads
// (nine 16-lane groups at n=140 take well under a millisecond). The
// master is then gone when the slave sends tagReady; that is a shutdown,
// not a slave failure.
func TestSlaveStartsAfterMasterFinished(t *testing.T) {
	world := mpi.NewLocal(2)
	q := seq.SyntheticTitin(60, 1)
	setup := msgSetup{Seq: q.Codes, Matrix: "BLOSUM62", GapOpen: 10, GapExt: 1, Lanes: 16}
	if err := world[0].Send(1, tagSetup, setup.encode()); err != nil {
		t.Fatal(err)
	}
	world[0].Close()
	if err := RunSlave(world[1], 4); err != nil && !errors.Is(err, ErrMasterDown) {
		t.Fatalf("slave of a finished master: %v", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	setup := msgSetup{Seq: []byte{1, 2, 3}, Matrix: "BLOSUM62", GapOpen: 10, GapExt: 1, Lanes: 4}
	s2, err := decodeSetup(setup.encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(s2.Seq) != string(setup.Seq) || s2.Matrix != setup.Matrix ||
		s2.GapOpen != 10 || s2.GapExt != 1 || s2.Lanes != 4 {
		t.Errorf("setup round trip: %+v", s2)
	}

	job := msgJob{R: 42, First: true}
	j2, err := decodeJob(job.encode())
	if err != nil || j2 != job {
		t.Errorf("job round trip: %+v, %v", j2, err)
	}

	res := msgResult{R: 7, Version: 3, Work: topalign.Work{First: true, Tier: align.TierInt16x16, Rerun: true, Wasted: 5, ShadowEnds: 9},
		Scores: []int32{10, -2, 0}, Rows: [][]int32{{1, 2}, {3}, {}}}
	r2, err := decodeResult(res.encode())
	if err != nil {
		t.Fatal(err)
	}
	if r2.R != 7 || r2.Version != 3 || !r2.First || r2.Work != res.Work || len(r2.Scores) != 3 || r2.Scores[1] != -2 ||
		len(r2.Rows) != 3 || len(r2.Rows[0]) != 2 || r2.Rows[0][1] != 2 {
		t.Errorf("result round trip: %+v", r2)
	}

	top := msgTop{Version: 2, PairsI: []int32{1, 2}, PairsJ: []int32{5, 6}}
	t2, err := decodeTop(top.encode())
	if err != nil || len(t2.PairsI) != 2 || t2.PairsJ[1] != 6 {
		t.Errorf("top round trip: %+v, %v", t2, err)
	}

	row := msgRow{R: 9, Row: []int32{4, 5, 6}}
	w2, err := decodeRow(row.encode())
	if err != nil || w2.R != 9 || len(w2.Row) != 3 {
		t.Errorf("row round trip: %+v, %v", w2, err)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := decodeSetup([]byte{1, 2}); err == nil {
		t.Error("truncated setup accepted")
	}
	if _, err := decodeResult([]byte{0}); err == nil {
		t.Error("truncated result accepted")
	}
	bad := msgTop{Version: 1, PairsI: []int32{1}, PairsJ: []int32{2, 3}}
	if _, err := decodeTop(bad.encode()); err == nil {
		t.Error("mismatched pair lengths accepted")
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
		for j := range want[i].Pairs {
			if got[i].Pairs[j] != want[i].Pairs[j] {
				t.Fatalf("top %d pair %d differs", i+1, j)
			}
		}
	}
}
