package topalign

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/multialign"
	"repro/internal/triangle"
)

// Scratch bundles the kernel arenas one worker needs for the full task
// cycle: the scalar score kernel, group kernels, the traceback matrix,
// and a slab for the original rows it computes. Whoever drives the engine
// owns the arenas: one Scratch per worker goroutine under a scheduler,
// one per Run for the sequential loop and one per window helper. See
// align.Scratch for the ownership rules.
type Scratch struct {
	A align.Scratch
	G multialign.Scratch

	rows *triangle.Slab // original rows this goroutine computed (keep)
	kept [][]int32      // Realign's list of a group's kept rows, reused
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Engine holds the shared state of a top-alignment computation — the
// sequence, the override triangle, the original-bottom-row store, and
// the accepted top alignments — and provides the single-task operations
// the sequential and parallel drivers are built from.
//
// Engine methods are not self-synchronising. Realign is pure with
// respect to the triangle snapshot passed in (the row store is
// internally locked, and an original row sits in the slab of the
// scratch that computed it),
// so schedulers may realign distinct tasks concurrently as long as each
// concurrent caller brings its own Scratch. Accept mutates the engine
// and must be serialised.
type Engine struct {
	s    []byte
	cfg  Config
	tri  *triangle.Triangle
	orig *triangle.RowStore
	tops []TopAlignment

	profOnce sync.Once
	prof     *align.Profile // WindowProfile's
}

// NewEngine validates the configuration and prepares the state for
// sequence s (length >= 2).
func NewEngine(s []byte, cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults(len(s))
	if err != nil {
		return nil, err
	}
	if len(s) < 2 {
		return nil, fmt.Errorf("topalign: sequence length %d too short", len(s))
	}
	return &Engine{
		s:    s,
		cfg:  cfg,
		tri:  triangle.New(len(s)),
		orig: triangle.NewRowStore(len(s)),
	}, nil
}

// Len returns the sequence length m.
func (e *Engine) Len() int { return len(e.s) }

// NumSplits returns the number of split tasks, m-1.
func (e *Engine) NumSplits() int { return len(e.s) - 1 }

// Config returns the normalised configuration.
func (e *Engine) Config() Config { return e.cfg }

// NumTopsFound returns the number of accepted top alignments so far.
func (e *Engine) NumTopsFound() int { return len(e.tops) }

// Tops returns the accepted top alignments in acceptance order. The
// caller must not modify the returned slice.
func (e *Engine) Tops() []TopAlignment { return e.tops }

// Triangle returns the current override triangle. It is mutated by
// Accept; concurrent readers must use TriangleSnapshot instead.
func (e *Engine) Triangle() *triangle.Triangle { return e.tri }

// TriangleSnapshot returns an immutable snapshot of the current triangle
// for concurrent realignment: O(m) row headers, the column lists shared
// copy-on-write with the live triangle.
func (e *Engine) TriangleSnapshot() *triangle.Triangle { return e.tri.Clone() }

// WindowProfile returns the query profile of the engine's sequence that
// every goroutine of RunWindows reads, building it on first use. A caller
// with a core to spare can build it ahead: seedindex.Find does, beside
// its index and chain stages.
func (e *Engine) WindowProfile() *align.Profile {
	e.profOnce.Do(func() { e.prof = align.NewProfile(e.cfg.Params.Exch, e.s) })
	return e.prof
}

// OrigRows exposes the original-bottom-row store (the distributed master
// serves replicas from it).
func (e *Engine) OrigRows() *triangle.RowStore { return e.orig }

// Work is what one Realign measured: the part of a task operation's
// accounting only whoever ran it knows. Realign returns it instead of
// counting it, so an operation run elsewhere (a cluster slave) crosses
// the wire as this record and is counted by the same Engine.Count call
// a local driver makes. The alignments and cells of the operation are a
// function of the task and are not repeated here.
type Work struct {
	First      bool       // the task's first (unmasked) alignment, not a realignment
	Tier       align.Tier // kernel tier that served the operation
	Rerun      bool       // a narrow pass saturated and was finished one rung wider
	Wasted     int64      // cells the saturated pass threw away (align.Scratch.Wasted)
	ShadowEnds int64      // bottom-row endings rejected as shadows
	Nanos      int64      // kernel wall time
}

// Realign (re)aligns task t score-only against the triangle snapshot
// tri, which corresponds to topNum accepted top alignments, updates the
// task's score and AlignedWith stamp, and reports what it ran. It is the
// one task operation behind every driver: a split task aligns the window
// [1..R] x [R+1..m], a group task its GroupLanes neighbouring splits
// with the group kernel, a window task its Rect. It is compute and apply
// in one call; a windowed run's helpers run compute alone, ahead of the
// loop, and the loop applies what they computed (Run).
//
// A task's first alignment ignores tri: it is unmasked, recorded as the
// original row that later alignments are shadow-checked against, and —
// being exact only for the empty triangle — stamped AlignedWith = 0
// whatever topNum is, so a task first aligned after tops exist is
// realigned before it can be accepted. Later alignments are masked by
// tri and stamped topNum; their score is exact for tri and stays a valid
// upper bound for any later (larger) triangle. All working memory comes
// from sc and the task's reused member-score slice; a warm task realigns
// without allocation. An error means the group kernel refused arguments
// NewEngine and InitialQueue had validated: a bug, not an input.
func (e *Engine) Realign(t *Task, tri *triangle.Triangle, topNum int, sc *Scratch) (Work, error) {
	r := realignment{members: t.MemberScores, rows: sc.kept}
	err := e.compute(t, e.origRow(t.R, t.Win) == nil, tri, topNum, sc, &r)
	sc.kept = r.rows[:0]
	if err != nil {
		return r.work, err
	}
	e.apply(t, &r, topNum)
	return r.work, nil
}

// realignment is one (re)alignment of a task as compute leaves it for
// apply: everything Realign changes, kept off the task.
type realignment struct {
	score   int32
	members []int32   // group mode: one score per member (Task.MemberScores)
	row     []int32   // a split's or window's first alignment: its original row
	rows    [][]int32 // a group's first alignment: one original row per member
	stamp   int       // the task's new AlignedWith
	work    Work
}

// compute (re)aligns task t into r without touching the task or the
// engine: first says whether this is the task's first alignment (a
// group's members share alignment history, so its first split stands
// for all of them). A first alignment's rows are kept in sc's slab, so
// they outlive sc's next use and apply hands them over without a copy;
// r.rows is reused. compute reads the sequence, the row store and tri
// only, so helpers run it concurrently with the loop and with each other.
func (e *Engine) compute(t *Task, first bool, tri *triangle.Triangle, topNum int, sc *Scratch, r *realignment) error {
	r.row, r.rows, r.stamp = nil, r.rows[:0], topNum
	if first {
		tri, r.stamp = nil, 0
	}
	switch {
	case t.Win != nil && first:
		r.row, r.work = e.pass(t.Win.Rect, nil, true, sc)
		r.row = sc.keep(e, r.row)
		_, r.score, _ = align.BestValidEnd(r.row, nil)
	case t.Win != nil:
		r.score, r.work = e.realignRect(t.Win.Rect, t.Win.orig, tri, true, sc)
	case e.cfg.GroupLanes > 1:
		var rows [][]int32
		var err error
		if r.members, rows, r.work, err = e.alignGroup(t.R, first, tri, sc, r.members); err != nil {
			return err
		}
		r.score = slices.Max(r.members)
		for _, row := range rows {
			r.rows = append(r.rows, sc.keep(e, row))
		}
	case first:
		r.row, r.work = e.pass(e.splitRect(t.R), nil, false, sc)
		r.row = sc.keep(e, r.row)
		_, r.score, _ = align.BestValidEnd(r.row, nil)
	default:
		orig, _ := e.orig.Get(t.R)
		r.score, r.work = e.realignRect(e.splitRect(t.R), orig, tri, false, sc)
	}
	r.work.First = first
	return nil
}

// apply gives task t what compute left in r — score, member scores and
// stamp — and records a first alignment's original rows, which compute
// kept: a window's on the window, a split's or group's in the row store.
// It then reports the operation to OnRealign. Only the goroutine that
// drives the queue applies: a helper's result reaches the engine through
// the loop.
func (e *Engine) apply(t *Task, r *realignment, topNum int) {
	switch {
	case r.row != nil && t.Win != nil:
		t.Win.orig = r.row
	case r.row != nil:
		e.orig.Adopt(t.R, r.row)
	}
	for i, row := range r.rows {
		e.orig.Adopt(t.R+i, row)
	}
	t.Score, t.AlignedWith = r.score, r.stamp
	if e.cfg.GroupLanes > 1 && t.Win == nil {
		t.MemberScores, r.members = r.members, t.MemberScores
	}
	if e.cfg.OnRealign != nil {
		e.cfg.OnRealign(t, topNum)
	}
}

// Count records task t's operation w in the engine's counters: one
// alignment per live member over the cells of its rectangle, under the
// tier, latency and shadow count w carries. Every driver calls it with
// what Realign returned; the cluster master with what a slave shipped.
func (e *Engine) Count(t *Task, w Work) {
	members, cells := 1, int64(0)
	if t.Win != nil {
		cells = t.Win.Rect.Cells()
	} else {
		members = e.members(t.R)
		for r := t.R; r < t.R+members; r++ {
			cells += e.splitRect(r).Cells()
		}
	}
	c := e.cfg.Counters
	c.AddAlignments(int64(members), cells, !w.First)
	c.ObserveAlignLatencyPer(time.Duration(w.Nanos), members)
	c.AddTierAlignments(int(w.Tier), int64(members), w.Rerun)
	c.AddWastedCells(w.Wasted)
	c.AddShadowEnds(w.ShadowEnds)
}

// members is the number of live splits of the task starting at r0: 1 at
// one lane, fewer than GroupLanes for the last group of the sequence.
func (e *Engine) members(r0 int) int {
	return min(e.cfg.GroupLanes, len(e.s)-r0)
}

// splitRect returns split r as a window: all of the prefix against all
// of the suffix.
func (e *Engine) splitRect(r int) align.Rect {
	return align.Rect{Y0: 1, Y1: r, X0: r + 1, X1: len(e.s)}
}

// origRow returns the recorded original (unmasked) bottom row of split r
// or, when win is non-nil, of that window; nil before the first
// alignment. Rows are never empty, so nil is unambiguous.
func (e *Engine) origRow(r int, win *Window) []int32 {
	if win != nil {
		return win.orig
	}
	row, _ := e.orig.Get(r)
	return row
}

// realignRect realigns one rectangle with the row kernel against tri
// and returns its score — the maximum over valid bottom-row endings
// after shadow rejection against orig, the rectangle's original row —
// and what it ran. Window passes start on the byte rung (byteOK); split
// passes never do.
func (e *Engine) realignRect(w align.Rect, orig []int32, tri *triangle.Triangle, byteOK bool, sc *Scratch) (int32, Work) {
	row, work := e.pass(w, tri, byteOK, sc)
	var score int32
	_, score, work.ShadowEnds = align.BestValidEnd(row, orig)
	return score, work
}

// pass runs one score-only pass over w against tri, on the byte rung
// when byteOK (align.Scratch.ScoreWindow), and reports what it ran. The
// row is scratch-owned.
func (e *Engine) pass(w align.Rect, tri *triangle.Triangle, byteOK bool, sc *Scratch) ([]int32, Work) {
	t0 := time.Now()
	var row []int32
	if byteOK {
		row = sc.A.ScoreWindow(e.cfg.Params, e.s, w, tri)
	} else {
		row = sc.A.ScoreWindowWide(e.cfg.Params, e.s, w, tri)
	}
	wasted := sc.A.Wasted()
	return row, Work{Tier: sc.A.Tier(), Rerun: wasted > 0, Wasted: wasted, Nanos: int64(time.Since(t0))}
}

// keep copies row into sc's slab, which keeps the original rows the
// goroutine owning sc computes: a window's for Window.orig, a split's or
// group's for the row store to adopt.
func (sc *Scratch) keep(e *Engine, row []int32) []int32 {
	if sc.rows == nil {
		slab := triangle.NewSlab(len(e.s))
		sc.rows = &slab
	}
	return sc.rows.Keep(row)
}

// alignGroup aligns the fixed group of GroupLanes neighbouring splits
// starting at r0 against tri (nil on the group's first alignment) with
// the fastest exact group kernel (multialign) and returns one score per
// member (member i is split r0+i; members beyond the last split get
// score 0), on a first alignment the members' bottom rows (sc's, for
// apply to store), and what it ran.
//
// The result is written into scores when it has capacity (callers reuse
// a task's member-score slice); otherwise a fresh slice is returned.
func (e *Engine) alignGroup(r0 int, first bool, tri *triangle.Triangle, sc *Scratch, scores []int32) ([]int32, [][]int32, Work, error) {
	lanes := e.cfg.GroupLanes
	t0 := time.Now()
	g, err := sc.G.ScoreGroupAuto(e.cfg.Params, e.s, r0, lanes, tri)
	if err != nil {
		return scores, nil, Work{}, fmt.Errorf("topalign: group %d: %w", r0, err)
	}
	work := Work{First: first, Tier: g.Tier, Rerun: g.Rerun, Nanos: int64(time.Since(t0))}
	if cap(scores) < lanes {
		scores = make([]int32, lanes)
	}
	scores = scores[:lanes]
	clear(scores)
	members := e.members(r0)
	for i := 0; i < members; i++ {
		var orig []int32 // nil on the first alignment: nothing to reject
		if !first {
			orig, _ = e.orig.Get(r0 + i)
		}
		var rejected int64
		_, scores[i], rejected = align.BestValidEnd(g.Bottoms[i], orig)
		work.ShadowEnds += rejected
	}
	if !first {
		return scores, nil, work, nil
	}
	return scores, g.Bottoms[:members], work, nil
}

// Accept accepts task t's current alignment as the next top alignment:
// it recomputes the full matrix of the task's rectangle (for a group,
// its best member's) against the current triangle, tracebacks from the
// best valid ending, marks the path's residue pairs in the triangle, and
// records the result. The returned alignment's pairs are in global
// coordinates; Split is the rectangle's bottom row — the split itself,
// or for a window the global prefix position the alignment ends at, the
// same split the exact engine would have found it under. Accept mutates
// the engine: callers serialise it.
func (e *Engine) Accept(t *Task, sc *Scratch) (TopAlignment, error) {
	w := e.splitRect(t.R)
	switch {
	case t.Win != nil:
		w = t.Win.Rect
	case e.cfg.GroupLanes > 1:
		if len(t.MemberScores) == 0 {
			return TopAlignment{}, fmt.Errorf("topalign: accepting group %d with no member scores", t.R)
		}
		best := 0
		for i, s := range t.MemberScores {
			if s > t.MemberScores[best] {
				best = i
			}
		}
		w = e.splitRect(t.R + best)
	}
	sp := e.cfg.Spans.Start(e.cfg.SpanParent, "engine.accept")
	sp.SetRank(e.cfg.SpanRank)
	sp.SetArg(int64(w.Y1))
	defer sp.End()
	orig := e.origRow(w.Y1, t.Win)
	if orig == nil {
		return TopAlignment{}, fmt.Errorf("topalign: accepting %+v that was never aligned", w)
	}
	mtx := sc.A.MatrixWindow(e.cfg.Params, e.s, w, e.tri)
	e.cfg.Counters.AddTraceback(w.Cells())
	endX, score, _ := align.BestValidEnd(mtx[w.H()][1:], orig)
	if endX == 0 || score <= 0 {
		return TopAlignment{}, fmt.Errorf("topalign: %+v has no valid alignment to accept", w)
	}
	a, err := sc.A.TracebackWindow(e.cfg.Params, mtx, e.s, w, e.tri, endX)
	if err != nil {
		return TopAlignment{}, fmt.Errorf("topalign: %+v: %w", w, err)
	}
	top := TopAlignment{
		Index: len(e.tops) + 1,
		Split: w.Y1,
		Score: a.Score,
		Pairs: make([]Pair, len(a.Pairs)),
	}
	for i, p := range a.Pairs {
		gp := Pair{I: w.Y0 - 1 + p.Y, J: w.X0 - 1 + p.X}
		top.Pairs[i] = gp
		e.tri.Set(gp.I, gp.J)
	}
	e.tops = append(e.tops, top)
	return top, nil
}
