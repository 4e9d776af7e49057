package topalign_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/obs/trace"
	"repro/internal/scoring"
	"repro/internal/seedindex"
	"repro/internal/seq"
	"repro/internal/topalign"
)

// acceptSpans sorts a trace's engine.accept spans by whether Accept ran
// the checkpointing pass itself (an engine.accept.pass child).
func acceptSpans(spans []trace.Span) (passed, reused []trace.Span) {
	pass := map[trace.SpanID]bool{}
	for _, sp := range spans {
		if sp.Name == "engine.accept.pass" {
			pass[sp.Parent] = true
		}
	}
	for _, sp := range spans {
		if sp.Name != "engine.accept" {
			continue
		}
		if pass[sp.ID] {
			passed = append(passed, sp)
		} else {
			reused = append(reused, sp)
		}
	}
	return passed, reused
}

// acceptCase is an engine over a DNA tandem array with two tasks on the
// same window — several copies against several copies, far taller than
// one traceback block — both first-aligned, and a trace recording the
// engine's spans.
type acceptCase struct {
	e      *topalign.Engine
	a, b   *topalign.Task
	col    *trace.Collector
	id     trace.TraceID
	window align.Rect
}

func newAcceptCase(t *testing.T) *acceptCase {
	t.Helper()
	s := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: 12, FlankLen: 100,
		Profile: seq.MutationProfile{SubstRate: 0.1, IndelRate: 0.01, IndelExt: 0.5}, Seed: 4}).Codes
	c := &acceptCase{col: trace.NewCollector(0, 0), id: trace.NewTraceID(), window: align.Rect{Y0: 101, Y1: 900, X0: 901, X1: 1700}}
	var err error
	c.e, err = topalign.NewEngine(s, topalign.Config{Params: align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}},
		NumTops: 5, GroupLanes: 1, Spans: c.col.Rec(c.id)})
	if err != nil {
		t.Fatal(err)
	}
	c.a = &topalign.Task{R: c.window.Y1, AlignedWith: -1, Win: &topalign.Window{Rect: c.window, Bound: topalign.Infinity}}
	c.b = &topalign.Task{R: c.window.Y1, AlignedWith: -1, Win: &topalign.Window{Rect: c.window, Bound: topalign.Infinity}}
	sc := topalign.NewScratch()
	for _, task := range []*topalign.Task{c.a, c.b} {
		if _, err := c.e.Realign(task, c.e.Triangle(), 0, sc); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// accept accepts task on sc and reports the top and whether it ran the
// checkpointing pass.
func (c *acceptCase) accept(t *testing.T, task *topalign.Task, sc *topalign.Scratch) (topalign.TopAlignment, bool) {
	t.Helper()
	top, err := c.e.Accept(task, sc)
	if err != nil {
		t.Fatal(err)
	}
	spans, _, _ := c.col.Get(c.id)
	passed, _ := acceptSpans(spans)
	last := spans[len(spans)-1]
	if last.Name != "engine.accept" {
		t.Fatalf("last span %q, want engine.accept", last.Name)
	}
	for _, sp := range passed {
		if sp.ID == last.ID {
			return top, true
		}
	}
	return top, false
}

// The checkpoints of a realignment are read only while the triangle is
// the one the realignment was masked by. Here task a is realigned against
// the first top, then task b — on the same rectangle, accepted on
// another scratch — changes the triangle without touching the scratch
// that holds a's checkpoints: a's accept must run the pass again, and it
// must accept what a scratch that never saw a's realignment accepts.
// (Mutation-checked: a tag without the triangle's Count fails it.)
func TestAcceptAfterAnotherTopRunsThePass(t *testing.T) {
	var want topalign.TopAlignment
	for _, fresh := range []bool{true, false} {
		c := newAcceptCase(t)
		sc, other := topalign.NewScratch(), topalign.NewScratch()
		if _, passed := c.accept(t, c.b, other); !passed {
			t.Fatal("the first accept of a window reused checkpoints no masked pass left")
		}
		if _, err := c.e.Realign(c.a, c.e.Triangle(), 1, sc); err != nil {
			t.Fatal(err)
		}
		if _, passed := c.accept(t, c.a, sc); passed {
			t.Fatal("the accept right after the realignment did not reuse its checkpoints")
		}
		// b again, stamped as exact for two tops: it realigns on other and
		// is accepted there, changing the triangle under a's next accept
		if _, err := c.e.Realign(c.b, c.e.Triangle(), 2, other); err != nil {
			t.Fatal(err)
		}
		if _, err := c.e.Realign(c.a, c.e.Triangle(), 2, sc); err != nil {
			t.Fatal(err)
		}
		c.accept(t, c.b, other)
		if fresh {
			sc = topalign.NewScratch()
		}
		top, passed := c.accept(t, c.a, sc)
		if !passed {
			t.Fatal("accepted after another top changed the triangle, yet no pass ran")
		}
		if fresh {
			want = top
		} else if !reflect.DeepEqual(top, want) {
			t.Fatalf("accept on the realigning scratch\n got %+v\nwant %+v", top, want)
		}
	}
}

// A strict parallel worker realigns against a snapshot of the triangle
// (a Clone, its own pointer) and accepts against the live one: the
// checkpoints of the snapshot pass are not read, even though the two
// triangles hold the same pairs.
func TestAcceptAfterSnapshotRealignRunsThePass(t *testing.T) {
	c := newAcceptCase(t)
	sc := topalign.NewScratch()
	if _, passed := c.accept(t, c.b, sc); !passed {
		t.Fatal("the first accept of a window reused checkpoints no masked pass left")
	}
	if _, err := c.e.Realign(c.a, c.e.TriangleSnapshot(), 1, sc); err != nil {
		t.Fatal(err)
	}
	top, passed := c.accept(t, c.a, sc)
	if !passed {
		t.Fatal("accepted after a realignment against a snapshot, yet no pass ran")
	}
	ref := newAcceptCase(t)
	ref.accept(t, ref.b, topalign.NewScratch())
	want, _ := ref.accept(t, ref.a, topalign.NewScratch())
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("accept after a snapshot realignment\n got %+v\nwant %+v", top, want)
	}
}

// On the DNA preset run — the balanced preset on a tandem array whose
// windows are thousands of rows tall (the ledger's input has 200 copies;
// 40 keep the test quick on the Go rows under the race detector) — the
// loop realigns a window just before it accepts it, so every accept but
// the first reads the checkpoints of that realignment: at least
// NumTops-1 accepts recompute several blocks without a pass of their
// own, whether or not helpers compute first alignments beside the loop.
func TestDNAPresetReusesCheckpoints(t *testing.T) {
	s := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: 40, FlankLen: 600,
		Profile: seq.MutationProfile{SubstRate: 0.10, IndelRate: 0.01, IndelExt: 0.5}, Seed: 2}).Codes
	cfg, err := seedindex.PresetConfig(seedindex.PresetBalanced, 4)
	if err != nil {
		t.Fatal(err)
	}
	const tops = 15
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			col := trace.NewCollector(0, 0)
			id := trace.NewTraceID()
			top := topalign.Config{Params: align.Params{Exch: scoring.DNAUnit, Gap: scoring.DefaultGap(scoring.DNAUnit)},
				NumTops: tops, Spans: col.Rec(id)}
			res, _, err := seedindex.Find(s, cfg, top)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tops) != tops {
				t.Fatalf("GOMAXPROCS=%d: %d tops, want %d", procs, len(res.Tops), tops)
			}
			spans, _, _ := col.Get(id)
			passed, reused := acceptSpans(spans)
			multi := 0
			for _, sp := range reused {
				if sp.Arg >= 2 {
					multi++
				}
			}
			t.Logf("GOMAXPROCS=%d: %d accepts ran the pass, %d reused checkpoints (%d over several blocks)", procs, len(passed), len(reused), multi)
			if multi < tops-1 {
				t.Errorf("GOMAXPROCS=%d: %d accepts reused checkpoints over several blocks, want >= %d", procs, multi, tops-1)
			}
		}()
	}
}
