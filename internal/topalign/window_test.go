package topalign

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/obs/attrib"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
)

// A split is a window: RunWindows over one full-split window per split,
// queued at Infinity like Find's initial tasks, must perform exactly
// Find's alignments, realignments and tracebacks — same tops (index,
// split, score, pairs) and the same engine-counted cell total. Windows
// may run on the byte rung where splits run int16x16: folded into the
// rung that finishes a flagged pass, the tier mix is the same.
func TestRunWindowsFullSplitsMatchFind(t *testing.T) {
	dnaTandem := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 30, Copies: 6, FlankLen: 20,
		Profile: seq.MutationProfile{SubstRate: 0.1}, Seed: 5})
	for _, tc := range []struct {
		name   string
		codes  []byte
		params align.Params
		tops   int
	}{
		{"titin-200", seq.SyntheticTitin(200, 1).Codes, proteinParams, 12},
		{"titin-160", seq.SyntheticTitin(160, 7).Codes, proteinParams, 8},
		{"tandem-protein", seq.Tandem(seq.TandemSpec{UnitLen: 25, Copies: 5, FlankLen: 15,
			Profile: seq.DefaultDivergence, Seed: 3}).Codes, proteinParams, 10},
		{"tandem-dna", dnaTandem.Codes, dnaParams, 10},
		{"paper-atgc", seq.PaperATGC().Codes, dnaParams, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// one split per task, like the windows: the work counts must match
			want, err := Find(tc.codes, Config{Params: tc.params, NumTops: tc.tops, GroupLanes: 1, Counters: &stats.Counters{}})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(tc.codes, Config{Params: tc.params, NumTops: tc.tops, Counters: &stats.Counters{}})
			if err != nil {
				t.Fatal(err)
			}
			m := e.Len()
			tasks := make([]*Task, 0, m-1)
			for r := 1; r < m; r++ {
				tasks = append(tasks, &Task{R: r, Score: Infinity, AlignedWith: -1,
					Win: &Window{Rect: align.Rect{Y0: 1, Y1: r, X0: r + 1, X1: m}, Bound: Infinity}})
			}
			if err := RunWindows(e, tasks); err != nil {
				t.Fatal(err)
			}
			assertSameTops(t, e.Tops(), want.Tops)
			for i, top := range e.Tops() {
				if top.Index != want.Tops[i].Index {
					t.Errorf("top %d index = %d, want %d", i+1, top.Index, want.Tops[i].Index)
				}
			}
			got := e.Config().Counters.Snapshot()
			if got.Cells != want.Stats.Cells || got.Alignments != want.Stats.Alignments ||
				got.Realignments != want.Stats.Realignments || got.Tracebacks != want.Stats.Tracebacks {
				t.Errorf("work differs: windows %v, splits %v", got, want.Stats)
			}
			mix := got.TierAlignments
			mix[align.TierInt16x16] += mix[align.TierU8x32]
			mix[align.TierU8x32] = 0
			if mix != want.Stats.TierAlignments {
				t.Errorf("kernel-tier mix differs: windows %v, splits %v", got.TierAlignments, want.Stats.TierAlignments)
			}
		})
	}
}

// RunWindows must refuse caller-built tasks the kernels would index out
// of range with, or whose cells are not ordered pairs, before aligning
// anything.
func TestRunWindowsValidatesTasks(t *testing.T) {
	codes := seq.SyntheticTitin(60, 2).Codes
	m := len(codes)
	win := func(r int, rect align.Rect) *Task {
		return &Task{R: r, Score: 100, AlignedWith: -1, Win: &Window{Rect: rect, Bound: 100}}
	}
	for _, tc := range []struct {
		name string
		task *Task
		want string // substring of the error; "" = accepted
	}{
		{"valid", win(20, align.Rect{Y0: 5, Y1: 20, X0: 25, X1: 50}), ""},
		{"valid full split", win(30, align.Rect{Y0: 1, Y1: 30, X0: 31, X1: m}), ""},
		{"no window", &Task{R: 20, Score: 100, AlignedWith: -1}, "non-windowed"},
		{"columns past the end", win(20, align.Rect{Y0: 5, Y1: 20, X0: 25, X1: m + 1}), "invalid window"},
		{"row zero", win(20, align.Rect{Y0: 0, Y1: 20, X0: 25, X1: 50}), "invalid window"},
		{"rows inverted", win(5, align.Rect{Y0: 20, Y1: 5, X0: 25, X1: 50}), "invalid window"},
		{"columns inverted", win(20, align.Rect{Y0: 5, Y1: 20, X0: 50, X1: 25}), "invalid window"},
		{"touches the diagonal", win(20, align.Rect{Y0: 5, Y1: 20, X0: 20, X1: 50}), "invalid window"},
		{"crosses the diagonal", win(30, align.Rect{Y0: 5, Y1: 30, X0: 20, X1: 50}), "invalid window"},
		{"R is not the bottom row", win(19, align.Rect{Y0: 5, Y1: 20, X0: 25, X1: 50}), "bottom row"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &stats.Counters{}
			e, err := NewEngine(codes, Config{Params: proteinParams, NumTops: 2, Counters: c})
			if err != nil {
				t.Fatal(err)
			}
			// a valid task first: a bad one later in the list must still
			// stop the run before any alignment
			err = RunWindows(e, []*Task{win(10, align.Rect{Y0: 1, Y1: 10, X0: 12, X1: 40}), tc.task})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid task refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
			if n := c.Snapshot().Alignments; n != 0 {
				t.Errorf("%d alignments ran before the task list was refused", n)
			}
		})
	}
}

// A caller that leaves AlignedWith at its zero value on a never-aligned
// window must still get the first alignment, not an acceptance of a
// bound.
func TestRunWindowsUnalignedZeroStamp(t *testing.T) {
	codes := seq.PaperATGC().Codes
	e, err := NewEngine(codes, Config{Params: dnaParams, NumTops: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{R: 4, Score: 8, Win: &Window{Rect: align.Rect{Y0: 1, Y1: 4, X0: 5, X1: 12}, Bound: 8}}
	if err := RunWindows(e, []*Task{task}); err != nil {
		t.Fatal(err)
	}
	if len(e.Tops()) != 1 || e.Tops()[0].Score != 8 {
		t.Fatalf("tops = %+v, want one alignment of score 8", e.Tops())
	}
}

// Window and lanes-1 alignments count under the row tier that ran them:
// a rectangle under one block wide, or past the int16 score bound, shows
// up as what it ran, whatever tier is forced.
func TestAlignRectCountsTheRowTier(t *testing.T) {
	prev := align.ActiveTier()               // the whole ladder: multialign reads u8x32 as int16x16
	defer align.SetKernelTier(prev.String()) //nolint:errcheck // prev was active, so it is supported
	codes := seq.SyntheticTitin(200, 1).Codes
	// W:W scores 17 under PAM250: poly-W splits of 1883 and more rows by as
	// many columns pass the int16 bound.
	polyW, err := seq.Protein.Encode(strings.Repeat("W", 3800))
	if err != nil {
		t.Fatal(err)
	}
	pam := align.Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}
	for _, tier := range []multialign.Tier{multialign.TierScalar, multialign.TierInt32x8, multialign.TierInt16x16} {
		if tier > multialign.DetectedTier() {
			continue
		}
		if err := multialign.SetKernelTier(tier.String()); err != nil {
			t.Fatal(err)
		}
		// every split of a lanes-1 run, narrow ones included
		var want [stats.NumTiers]int64
		cfg := Config{Params: proteinParams, NumTops: 6, GroupLanes: 1, Counters: &stats.Counters{}}
		cfg.OnRealign = func(task *Task, _ int) { want[align.RowTier(proteinParams, task.R, len(codes)-task.R)]++ }
		res, err := Find(codes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TierAlignments != want {
			t.Errorf("%s lanes 1: tier mix %v, want %v", tier, res.Stats.TierAlignments, want)
		}
		if tier > multialign.TierScalar && (want[multialign.TierScalar] == 0 || want[tier] == 0) {
			t.Errorf("%s lanes 1: tier mix %v proves nothing: want splits under and over one block wide", tier, want)
		}
		// two windows either side of the int16 bound
		e, err := NewEngine(polyW, Config{Params: pam, NumTops: 1, Counters: &stats.Counters{}})
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		for _, side := range []int{1800, 1900} {
			rect := align.Rect{Y0: 1, Y1: side, X0: 1901, X1: 1900 + side}
			task := &Task{R: side, Score: Infinity, AlignedWith: -1, Win: &Window{Rect: rect, Bound: Infinity}}
			w, err := e.Realign(task, nil, 0, sc)
			if err != nil {
				t.Fatal(err)
			}
			e.Count(task, w)
		}
		want = [stats.NumTiers]int64{}
		want[min(tier, multialign.TierInt32x8)]++ // 17 * 1900 = 32300
		want[tier]++                              // 17 * 1800 = 30600
		if got := e.Config().Counters.Snapshot().TierAlignments; got != want {
			t.Errorf("%s windows: tier mix %v, want %v", tier, got, want)
		}
	}
}

// RunWindows meters none of its caller's CPU — repro.Analyze's stopwatch
// does — so the counters' CPU after a run is what the lookahead helpers
// billed themselves: some under GOMAXPROCS 2, where one helper sorts the
// windows and computes first alignments; none under GOMAXPROCS 1, where
// the loop runs alone, nor under GOMAXPROCS 2 while another engine loop
// of the process holds the second core. The loop counts itself engaged
// while it runs.
func TestLookaheadBillsItsHelpers(t *testing.T) {
	if !attrib.ThreadCPUSupported() {
		t.Skip("no per-thread CPU clock on this platform")
	}
	codes := seq.SyntheticTitin(300, 4).Codes
	for _, c := range []struct {
		procs, others int32
		helped        bool
	}{{1, 0, false}, {2, 0, true}, {2, 1, false}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(int(c.procs)))
			engaged.Add(c.others)
			defer engaged.Add(-c.others)
			counters := &stats.Counters{}
			var seen int32 // the most goroutines engaged while the loop realigned
			onRealign := func(*Task, int) { seen = max(seen, engaged.Load()) }
			e, err := NewEngine(codes, Config{Params: proteinParams, NumTops: 5, Counters: counters, OnRealign: onRealign})
			if err != nil {
				t.Fatal(err)
			}
			var tasks []*Task
			for r := 1; r < len(codes); r++ {
				rect := align.Rect{Y0: 1, Y1: r, X0: r + 1, X1: len(codes)}
				tasks = append(tasks, &Task{R: r, Score: Infinity, AlignedWith: -1, Win: &Window{Rect: rect, Bound: Infinity}})
			}
			if err := RunWindows(e, tasks); err != nil {
				t.Fatal(err)
			}
			if cpu := counters.Snapshot().CPUNanos; (cpu > 0) != c.helped {
				t.Errorf("GOMAXPROCS %d, %d other loops: helpers billed %d ns", c.procs, c.others, cpu)
			}
			if seen < c.others+1 {
				t.Errorf("GOMAXPROCS %d: %d goroutines engaged during the run, want the loop and the %d others at least", c.procs, seen, c.others)
			}
			if n := engaged.Load(); n != c.others {
				t.Errorf("GOMAXPROCS %d: %d goroutines engaged after the run, want the %d others", c.procs, n, c.others)
			}
		}()
	}
}

// Helper places: a run reserves the cores its loop and the other engaged
// goroutines leave free, and a helper gives its place up once as many
// goroutines more are engaged than there are cores — one retirement per
// goroutine in excess, not one per helper that looks.
func TestHelperPlaces(t *testing.T) {
	defer engaged.Store(engaged.Load())
	engaged.Store(0)
	if got := reserveHelpers(4); got != 3 || engaged.Load() != 3 {
		t.Fatalf("idle process, 4 cores: reserved %d, engaged %d; want 3, 3", got, engaged.Load())
	}
	if reserveHelpers(4) != 0 {
		t.Fatal("reserved helpers with every core taken")
	}
	engaged.Add(1) // the loop that reserved them
	if retire(4) {
		t.Fatal("a helper retired with no goroutine in excess")
	}
	engaged.Add(2) // two more loops start
	retired := 0
	for h := 0; h < 3; h++ {
		if retire(4) {
			retired++
		}
	}
	if retired != 2 || engaged.Load() != 4 {
		t.Errorf("two loops over 4 cores: %d helpers retired, engaged %d; want 2, 4", retired, engaged.Load())
	}
}

// A report is a function of the task set: windows that tie on their bound
// and bottom row, and keep tying after alignment — a homopolymer, an
// exact repeated unit — are accepted in the queue's rectangle order
// whatever order they are handed over in, and with or without helpers.
func TestWindowTiesAreOrderFree(t *testing.T) {
	homopolymer, err := seq.DNA.Encode(strings.Repeat("A", 160))
	if err != nil {
		t.Fatal(err)
	}
	units, err := seq.DNA.Encode(strings.Repeat("ACGTTGCA", 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		codes []byte
	}{{"homopolymer", homopolymer}, {"exact-unit", units}} {
		m := len(in.codes)
		var rects []align.Rect
		for _, y1 := range []int{48, 64, 80} {
			for _, y0 := range []int{y1 - 31, y1 - 15} {
				for _, x0 := range []int{y1 + 1, y1 + 9, y1 + 17, y1 + 33} {
					if x1 := x0 + 31; x1 <= m {
						rects = append(rects, align.Rect{Y0: y0, Y1: y1, X0: x0, X1: x1})
					}
				}
			}
		}
		run := func(procs int, perm []int) []TopAlignment {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e, err := NewEngine(in.codes, Config{Params: dnaParams, NumTops: 10})
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]*Task, len(perm))
			for i, j := range perm {
				tasks[i] = &Task{R: rects[j].Y1, Score: 1000, AlignedWith: -1, Win: &Window{Rect: rects[j], Bound: 1000}}
			}
			if err := RunWindows(e, tasks); err != nil {
				t.Fatal(err)
			}
			return e.Tops()
		}
		ident := make([]int, len(rects))
		for i := range ident {
			ident[i] = i
		}
		want := run(1, ident)
		r := rand.New(rand.NewPCG(7, uint64(m)))
		for trial := 0; trial < 12; trial++ {
			if got := run(1+trial%2, r.Perm(len(rects))); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: tops depend on the order the windows were handed over in", in.name, trial)
			}
		}
	}
}
