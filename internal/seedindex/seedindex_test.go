package seedindex

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

func testConfig() Config {
	return Config{K: 3, Base: 20, MaxOcc: 64, SuccPairs: 8, MergeGap: 8,
		ChainGap: 32, BandWidth: 8, Pad: 8, MinSeeds: 1, MinMatched: 3}
}

func TestBuildIndexBasic(t *testing.T) {
	// AAAB AAAB: "AAA" at 0 and 4, "AAB" at 1 and 5, "ABA" at 2, "BAA" at 3.
	s := []byte{0, 0, 0, 1, 0, 0, 0, 1}
	cfg := testConfig()
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{4, 5, 0, 0, 0, 0, 0, 0}; !reflect.DeepEqual(x.next, want) {
		t.Fatalf("links = %v, want %v (AAA 0 -> 4, AAB 1 -> 5)", x.next, want)
	}
	if x.Positions() != 6 {
		t.Fatalf("positions = %d, want 6", x.Positions())
	}
}

func TestBuildIndexSkipsAmbiguity(t *testing.T) {
	// Code 20 is outside the primary range: windows containing it are
	// not indexed.
	s := []byte{0, 1, 20, 1, 0, 2, 3, 4}
	x, err := BuildIndex(s, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if x.Positions() != 3 || x.Kmers() != 3 { // windows starting at 3, 4, 5
		t.Fatalf("positions = %d kmers = %d, want 3 and 3", x.Positions(), x.Kmers())
	}
}

func TestBuildIndexOccurrenceCap(t *testing.T) {
	s := make([]byte, 100) // homopolymer: "AAA" occurs 98 times
	cfg := testConfig()
	cfg.MaxOcc = 10
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if x.Kmers() != 0 || x.Dropped() != 1 {
		t.Fatalf("kept %d dropped %d, want 0 kept 1 dropped", x.Kmers(), x.Dropped())
	}
	if ch := Chain(x, cfg); ch.Pairs != 0 {
		t.Fatalf("dropped seed still pairs %d times", ch.Pairs)
	}
}

func TestBuildIndexShortInput(t *testing.T) {
	x, err := BuildIndex([]byte{0, 1}, testConfig()) // shorter than k
	if err != nil {
		t.Fatal(err)
	}
	if x.Kmers() != 0 || x.Positions() != 0 {
		t.Fatalf("short input indexed %d kmers", x.Kmers())
	}
}

// TestBuildIndexRejectsPairOverflow: positions and pair offsets are
// int32, so an input whose capped pair count could exceed that is an
// error, not a wrapped offset.
func TestBuildIndexRejectsPairOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.SuccPairs, cfg.MaxOcc = 1<<30, 1<<30
	if _, err := BuildIndex([]byte{0, 1, 2}, cfg); err == nil {
		t.Fatal("3 residues at 2^30 pairs each accepted")
	}
	if _, err := BuildIndex([]byte{0}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSpacedSeedMask(t *testing.T) {
	cfg := testConfig()
	cfg.Mask = "101"
	cfg.K = 0
	if cfg.Weight() != 2 || cfg.Span() != 3 {
		t.Fatalf("weight %d span %d, want 2/3", cfg.Weight(), cfg.Span())
	}
	// ABC and ADC share the mask samples (A, C); ABD does not.
	s := []byte{0, 1, 2, 0, 3, 2, 0, 1, 3}
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := occurrencesFrom(x, 0); !reflect.DeepEqual(got, []int32{0, 3}) { // A_C
		t.Fatalf("A_C occurrences = %v, want [0 3]", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{K: 3, Base: 1, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1},          // base too small
		{K: 0, Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1},         // k < 1
		{K: 20, Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1},        // key overflow
		{Mask: "0110", Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1}, // mask edges
		{Mask: "1x1", Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1},  // mask alphabet
		{K: 3, Base: 20, MaxOcc: 0, SuccPairs: 1, BandWidth: 1, MinSeeds: 1},         // cap < 1
		{K: 3, Base: 20, MaxOcc: 1, SuccPairs: 0, BandWidth: 1, MinSeeds: 1},         // succ < 1
		{K: 3, Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 0, MinSeeds: 1},         // band < 1
		{K: 3, Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 0},         // seeds < 1
		{K: 3, Base: 20, MaxOcc: 1, SuccPairs: 1, BandWidth: 1, MinSeeds: 1, Pad: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d unexpectedly valid: %+v", i, c)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
}

func TestPresets(t *testing.T) {
	for _, preset := range []string{PresetFast, PresetBalanced, PresetSensitive} {
		for _, base := range []int{4, 20} {
			c, err := PresetConfig(preset, base)
			if err != nil {
				t.Fatalf("%s/%d: %v", preset, base, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s/%d invalid: %v", preset, base, err)
			}
		}
	}
	if _, err := PresetConfig("warp", 20); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if !ValidPreset("fast") || ValidPreset("warp") || ValidPreset("") {
		t.Fatal("ValidPreset wrong")
	}
}

// TestChainDeterminism: identical inputs produce identical output, and
// candidate windows are always valid with Y1 < X0.
func TestChainDeterminism(t *testing.T) {
	s := seq.Tandem(seq.TandemSpec{UnitLen: 40, Copies: 6, FlankLen: 20,
		Profile: seq.MutationProfile{SubstRate: 0.2, IndelRate: 0.02, IndelExt: 0.5},
		Seed:    5}).Codes
	cfg := testConfig()
	x1, _ := BuildIndex(s, cfg)
	x2, _ := BuildIndex(s, cfg)
	ch1, ch2 := Chain(x1, cfg), Chain(x2, cfg)
	if !reflect.DeepEqual(ch1, ch2) {
		t.Fatal("Chain is not deterministic")
	}
	c1 := Candidates(ch1, cfg, len(s), 11)
	c2 := Candidates(ch2, cfg, len(s), 11)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("Candidates is not deterministic")
	}
	if len(c1) == 0 {
		t.Fatal("no candidates on a tandem array")
	}
	for _, c := range c1 {
		if err := c.Rect.Validate(len(s)); err != nil {
			t.Fatalf("invalid candidate window: %v", err)
		}
		if c.Bound <= 0 {
			t.Fatalf("non-positive bound %d for %+v", c.Bound, c.Rect)
		}
	}
}

// TestSegmentsMergeOnDiagonal: seeds on one diagonal within MergeGap
// form a single segment whose covered count never exceeds its extent.
func TestSegmentsMergeOnDiagonal(t *testing.T) {
	// Perfect tandem: unit of 10 distinct codes repeated 4 times. Every
	// position matches the position one unit later, giving one long run
	// on diagonal 10.
	unit := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var s []byte
	for i := 0; i < 4; i++ {
		s = append(s, unit...)
	}
	cfg := testConfig()
	x, _ := BuildIndex(s, cfg)
	ch := Chain(x, cfg)
	found := false
	for _, cl := range ch.Clusters {
		if cl.DMin <= 10 && cl.DMax >= 10 {
			found = true
			if ext := cl.IEnd - cl.IStart; cl.Covered > ext {
				t.Fatalf("cluster covered %d exceeds extent %d", cl.Covered, ext)
			}
		}
	}
	if !found {
		t.Fatal("no cluster on the tandem diagonal")
	}
}

// TestExtendAllocatesPerRunNotPerWindow pins the slabs of the extend
// stage: preparing a 2 500-residue balanced run — the engine, one task
// and one window per candidate — and taking every window through its
// first alignment, where its original row is recorded, allocates less
// than once per window (a task, a window and a row copy each made it
// three). Accepting is left out: it allocates per path pair, by design
// (triangle.Set publishes a fresh column list).
func TestExtendAllocatesPerRunNotPerWindow(t *testing.T) {
	m := scoring.BLOSUM62
	s := seq.SyntheticTitin(2500, 1).Codes
	cfg, err := PresetConfig(PresetBalanced, seq.PrimaryLetters(m.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands := Candidates(Chain(x, cfg), cfg, len(s), m.MaxScore())
	top := topalign.Config{Params: align.Params{Exch: m, Gap: scoring.DefaultProteinGap}, NumTops: 5}
	sc := topalign.NewScratch()
	windows := 0
	allocs := testing.AllocsPerRun(5, func() {
		e, err := topalign.NewEngine(s, top)
		if err != nil {
			t.Fatal(err)
		}
		tasks := windowTasks(cands, e.Config().MinScore, &Stats{})
		for _, task := range tasks {
			if _, err := e.Realign(task, e.Triangle(), 0, sc); err != nil {
				t.Fatal(err)
			}
			if !task.Win.Aligned() {
				t.Fatal("first alignment recorded no original row")
			}
		}
		windows = len(tasks)
	})
	if windows < 100 {
		t.Fatalf("only %d windows: the input no longer exercises the stage", windows)
	}
	if allocs >= float64(windows) {
		t.Errorf("%.0f allocations for %d windows, want fewer than one per window", allocs, windows)
	}
	t.Logf("%.0f allocations, %d windows", allocs, windows)
}

// TestFindRejectsEngineFirst: a run whose engine configuration is invalid
// fails before the prefilter starts — no index is built and no stage span
// recorded — with the engine's error, even when the prefilter
// configuration is invalid too.
func TestFindRejectsEngineFirst(t *testing.T) {
	col := trace.NewCollector(0, 0)
	id := trace.NewTraceID()
	top := topalign.Config{Params: align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap},
		NumTops: 0, Spans: col.Rec(id)}
	cfg := testConfig()
	cfg.K = 0 // BuildIndex would reject this
	_, _, err := Find(seq.SyntheticTitin(2000, 1).Codes, cfg, top)
	if err == nil || !strings.Contains(err.Error(), "NumTops") {
		t.Fatalf("Find returned %v, want the engine's NumTops error", err)
	}
	if spans, _, _ := col.Get(id); len(spans) != 0 {
		t.Fatalf("Find recorded %d spans (first %q) before rejecting the engine config", len(spans), spans[0].Name)
	}
}

// TestChainBillsItsWorkers: a chain split in two bills the second part's
// thread CPU to the run's counters; one part bills nothing, as the
// caller's own stopwatch covers it.
func TestChainBillsItsWorkers(t *testing.T) {
	if !attrib.ThreadCPUSupported() {
		t.Skip("no per-thread CPU clock on this platform")
	}
	s := seq.SyntheticTitin(20000, 1).Codes
	cfg, err := PresetConfig(PresetBalanced, 20)
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2} {
		counters := &stats.Counters{}
		cr := crew{counters: counters}
		c := newChainer(x, cfg, parts)
		c.segments(cr)
		c.chain(cr)
		if cpu := counters.Snapshot().CPUNanos; (cpu > 0) != (parts > 1) {
			t.Errorf("%d parts billed %d ns of thread CPU", parts, cpu)
		}
	}
}
