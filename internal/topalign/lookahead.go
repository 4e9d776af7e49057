package topalign

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs/attrib"
	"repro/internal/triangle"
)

// lookaheadPerHelper is how many first alignments each helper may have
// finished beyond those the loop has consumed: the first-pass lookahead
// is a fixed multiple of the helper count. It bounds the passes computed
// for nothing when the run stops, and the rows they keep. Of 4, 8, 16 and
// 64, 16 read best on small protein windows and 64 no better; every pass
// past the loop's last is pure cost, and a DNA window is millions of
// cells. Realignments go one task per helper and one for the loop deep
// (lookahead.publish).
const lookaheadPerHelper = 16

// A slot's word packs a generation above two state bits. The generation
// says what the slot's result is for: genFirst the task's first
// alignment, genTaken nothing yet (the first alignment is the loop's),
// realignGen(k) a realignment against the triangle of k tops. A helper
// moves a slot free → claimed → done under one generation; the loop
// takes a done result of the generation it is about to compute and frees
// the slot, or marks a free slot with that generation and computes the
// task itself, which keeps helpers off it.
const (
	slotFree int64 = iota
	slotClaimed
	slotDone

	genFirst int64 = 0
	genTaken int64 = 1
)

// realignGen is the generation of a realignment against the triangle of
// k tops; k >= 1, since nothing is realigned before the first top.
func realignGen(k int) int64 { return int64(k) + 1 }

// slot is where a helper computes one task ahead of the loop: res and err
// are written by the helper that claimed the slot before it stores
// slotDone, and read by the loop only after it has seen slotDone.
type slot struct {
	word atomic.Int64
	task *Task
	res  realignment
	err  error
}

// plan is the loop's list of the tasks it will realign next against the
// triangle of version tops — the stale tasks behind the one it is on, in
// the order it will pop them (TaskQueue.stale) — for the helpers to
// claim in order.
type plan struct {
	version int
	tri     *triangle.Triangle
	tasks   []*Task
	next    atomic.Int32 // the next entry a helper may claim
}

// lookahead is the sequential loop's helpers: up to GOMAXPROCS-1
// goroutines, one per core the engaged count leaves free, that compute
// tasks ahead of the loop into the tasks' slots (Engine.compute) and
// leave the loop to apply and count them. There are two kinds of work,
// the claim of each kind running in the order the queue will pop:
//
//   - first alignments of never-aligned tasks (splits, groups, windows),
//     at most limit beyond the ones the loop has consumed. A first
//     alignment ignores the triangle, so it is a function of the task.
//   - realignments of split and group tasks against the current
//     triangle: after each acceptance the loop publishes a snapshot of
//     the triangle, and at each realignment the next stale tasks behind
//     it, one per helper and one for the loop (publish). An acceptance
//     makes what was computed against the older triangle waste; the
//     slot's generation keeps the loop from taking it.
//
// Helpers touch neither the queue nor the task, store no original row,
// call no OnRealign and count nothing but their CPU and the waste.
type lookahead struct {
	slots   []slot
	order   atomic.Pointer[[]int32] // the never-aligned tasks' slots in queue order, once the first helper has sorted them
	sorted  chan struct{}           // closed when order is set
	firsts  int64                   // len(order): the never-aligned tasks
	next    atomic.Int64            // the next position of order a helper may claim
	taken   atomic.Int64            // first alignments the loop has consumed
	limit   int64                   // helpers * lookaheadPerHelper
	plan    atomic.Pointer[plan]    // realignments to claim; never set on a windowed run
	helpers int
	procs   int32 // GOMAXPROCS when the run started
	windows bool  // a windowed run: first alignments only, one shared profile

	// the loop's own
	snap     *triangle.Triangle // the triangle the plans are against
	snapTops int
	frontier []int

	parked  atomic.Int32 // helpers waiting for work
	waiting atomic.Bool  // the loop waits for a helper's result
	wake    chan struct{}
	landed  chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

// engaged counts the goroutines of this process that run engine work
// and take a core for it: every Run loop — the exact sequential driver,
// a windowed run's loop, a cluster master finishing alone — every
// helper, and every shared-memory worker (Engage). Helpers are sized from
// it, so that analyses running side by side (a serve worker pool) keep a
// core each before any helper gets one, and a helper retires when a loop
// starting later finds every core taken. Cluster slaves are not counted.
// It is package state on purpose: the cores it shares out are the
// process's, and the analyses that compete for them have no caller in
// common.
var engaged atomic.Int32

// Engage counts the calling goroutine as engaged in engine work until
// release is called, so that the sequential loop's helpers leave its core
// alone. A scheduler's workers call it (package parallel).
func Engage() (release func()) {
	engaged.Add(1)
	return func() { engaged.Add(-1) }
}

// reserveHelpers claims up to procs-1 helper places beside the calling
// loop, which is not counted yet: as many as leave no more engaged
// goroutines than procs.
func reserveHelpers(procs int32) int32 {
	for {
		n := engaged.Load()
		helpers := procs - 1 - n
		if helpers < 1 {
			return 0
		}
		if engaged.CompareAndSwap(n, n+helpers) {
			return helpers
		}
	}
}

// retire gives up a helper's place when more goroutines are engaged than
// procs, and reports whether it did.
func retire(procs int32) bool {
	for {
		n := engaged.Load()
		if n <= procs {
			return false
		}
		if engaged.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// minHelpedCells is the least an exact run's splits must hold, in cells
// (m³/6 for m residues: 1<<24 at m ≈ 465), for its loop to start helpers.
// A helper's start, and the hand-offs of a realignment chain, cost about
// the same whatever the run; below this the CPU they add outgrows the
// wall time they save. On titin-like inputs at GOMAXPROCS 2 (16 lanes),
// helpers took 200 residues +9% wall, 300 −11% and 400 −14% for +25-28%
// CPU, and 500 −27% and 900 −30% for +11-12% (EXPERIMENTS.md). Windowed
// runs, whose helpers only stream first alignments, are not gated.
const minHelpedCells = 1 << 24

// startHelpers starts the helpers over queue q, or returns nil and starts
// nothing: with no core to spare (GOMAXPROCS 1, or as many engaged
// goroutines as cores), with fewer than two tasks, on an exact run under
// minHelpedCells, or on a windowed run with fewer than two windows to
// align for the first time.
func (e *Engine) startHelpers(q *TaskQueue) *lookahead {
	procs := int32(runtime.GOMAXPROCS(0))
	if procs < 2 || q.Len() < 2 {
		return nil
	}
	a := &lookahead{procs: procs, windows: q.h[0].Win != nil}
	if m := int64(len(e.s)); !a.windows && (m-1)*m*(m+1)/6 < minHelpedCells {
		return nil
	}
	n := 0
	for _, t := range q.h {
		if !a.windows || !t.Win.Aligned() {
			n++
		}
	}
	if n < 2 {
		return nil
	}
	helpers := int(reserveHelpers(procs))
	if helpers == 0 {
		return nil
	}
	a.slots = make([]slot, 0, n)
	keys := make([]queueKey, 0, n)
	for _, t := range q.h {
		if a.windows && t.Win.Aligned() {
			continue
		}
		a.slots = append(a.slots, slot{task: t})
		s := &a.slots[len(a.slots)-1]
		if e.origRow(t.R, t.Win) != nil {
			s.word.Store(genTaken << 2) // only realignments left
			continue
		}
		desc := ^(uint32(t.Score) ^ 1<<31) // order-preserving for int32, then flipped
		keys = append(keys, queueKey{order: uint64(desc)<<32 | uint64(uint32(t.R)), slot: int32(len(a.slots) - 1)})
	}
	for i := range a.slots {
		a.slots[i].task.spec = &a.slots[i]
	}
	a.helpers, a.firsts = helpers, int64(len(keys))
	a.limit = int64(helpers * lookaheadPerHelper)
	a.sorted = make(chan struct{})
	a.wake = make(chan struct{}, helpers) // a token per helper: a nudge never blocks, no parked helper is missed
	a.landed = make(chan struct{}, 1)
	a.quit = make(chan struct{})
	a.wg.Add(helpers)
	go a.helper(e, 0, keys)
	for h := 1; h < helpers; h++ {
		go a.helper(e, h, nil)
	}
	return a
}

// stop stops the helpers, if any, counts each result a helper finished
// and the loop never took as spec waste (engine/spec_waste), and detaches
// the slots.
func (a *lookahead) stop(e *Engine) {
	if a == nil {
		return
	}
	close(a.quit)
	a.wg.Wait()
	for i := range a.slots {
		s := &a.slots[i]
		s.task.spec = nil
		if s.word.Load()&3 == slotDone {
			e.cfg.Counters.AddSpecWaste()
		}
	}
}

// queueKey is a never-aligned task's place in the queue's order (before),
// taken before the loop starts changing task scores: order packs score
// descending, then R ascending, into one ascending key.
type queueKey struct {
	order uint64
	slot  int32 // the task's slot
}

// sort publishes the never-aligned tasks' slots in the queue's order.
// Windows that tie on score and R are ordered by their rectangles, as
// the queue orders them; a rectangle does not change, so the helper
// reads it while the loop runs.
func (a *lookahead) sort(keys []queueKey) {
	slices.SortFunc(keys, func(x, y queueKey) int {
		if c := cmp.Compare(x.order, y.order); c != 0 || !a.windows {
			return c
		}
		p, q := a.slots[x.slot].task.Win.Rect, a.slots[y.slot].task.Win.Rect
		switch {
		case rectBefore(p, q):
			return -1
		case rectBefore(q, p):
			return 1
		}
		return 0
	})
	order := make([]int32, len(keys))
	for j, k := range keys {
		order[j] = k.slot
	}
	a.order.Store(&order)
	close(a.sorted)
}

// helper is one helper goroutine: it computes what it can claim with its
// own scratch, parking when there is nothing, and retiring when the
// process has more engaged goroutines than cores. The first helper sorts
// the never-aligned tasks into queue order, while the loop computes the
// first of them itself. Like a parallel worker, a helper bills its thread
// CPU to the run and records one span for its whole life.
func (a *lookahead) helper(e *Engine, idx int, keys []queueKey) {
	defer a.wg.Done()
	cfg := e.cfg
	sp := cfg.Spans.Start(cfg.SpanParent, "topalign.lookahead")
	sp.SetRank(cfg.SpanRank)
	sp.SetArg(int64(idx))
	defer sp.End()
	var sw attrib.Stopwatch
	sw.Start()
	defer func() { cfg.Counters.AddCPU(sw.Stop()) }()
	if keys != nil {
		a.sort(keys)
	}
	if a.work(e) {
		engaged.Add(-1)
	}
}

// work computes what the helper claims until the run is over, a windowed
// run's windows are exhausted or the helper retires, and reports whether
// the helper still holds its engaged place.
func (a *lookahead) work(e *Engine) bool {
	select {
	case <-a.sorted:
	case <-a.quit:
		return true
	}
	sc := NewScratch()
	if a.windows {
		sc.A.ShareProfile(e.WindowProfile())
	}
	for {
		select {
		case <-a.quit:
			return true
		default:
		}
		if retire(a.procs) {
			return false
		}
		if !a.step(e, sc) && !a.park() {
			return true
		}
	}
}

// step claims one task — the current plan's next realignment, else the
// next first alignment within the lookahead — and computes it into its
// slot with sc. It reports whether there was one to claim.
func (a *lookahead) step(e *Engine, sc *Scratch) bool {
	if p := a.plan.Load(); p != nil {
		gen := realignGen(p.version)
		for {
			j := int(p.next.Add(1)) - 1
			if j >= len(p.tasks) {
				break
			}
			s := p.tasks[j].spec
			if w := s.word.Load(); w&3 == slotFree && w>>2 < gen && s.word.CompareAndSwap(w, gen<<2|slotClaimed) {
				a.compute(e, s, gen, p.tri, p.version, sc)
				return true
			}
		}
	}
	order := a.order.Load()
	if order == nil {
		return false
	}
	for {
		j := a.next.Load()
		if j >= int64(len(*order)) || j >= a.taken.Load()+a.limit {
			return false
		}
		if s := &a.slots[(*order)[j]]; a.next.CompareAndSwap(j, j+1) && s.word.CompareAndSwap(genFirst<<2|slotFree, genFirst<<2|slotClaimed) {
			a.compute(e, s, genFirst, nil, 0, sc)
			return true
		}
	}
}

// compute computes the task of s, which the caller has claimed for
// generation gen, into s, and tells a waiting loop. A first alignment's
// rows stay in sc's slab until the row store adopts them.
func (a *lookahead) compute(e *Engine, s *slot, gen int64, tri *triangle.Triangle, topNum int, sc *Scratch) {
	s.err = e.compute(s.task, gen == genFirst, tri, topNum, sc, &s.res)
	s.word.Store(gen<<2 | slotDone)
	if a.waiting.Load() {
		select {
		case a.landed <- struct{}{}:
		default:
		}
	}
}

// park waits until the loop has published more work. It returns false
// when the helper should end: a windowed run's windows are exhausted, or
// the run is over.
func (a *lookahead) park() bool {
	if a.windows && a.next.Load() >= a.firsts {
		return false
	}
	a.parked.Add(1)
	defer a.parked.Add(-1)
	if a.claimable() {
		return true // the loop published work since step looked
	}
	select {
	case <-a.wake:
		return true
	case <-a.quit:
		return false
	}
}

// claimable reports whether step would find something to claim.
func (a *lookahead) claimable() bool {
	if p := a.plan.Load(); p != nil && int(p.next.Load()) < len(p.tasks) {
		return true
	}
	j := a.next.Load()
	return j < a.firsts && j < a.taken.Load()+a.limit
}

// nudge wakes a parked helper.
func (a *lookahead) nudge() {
	if a.parked.Load() > 0 {
		select {
		case a.wake <- struct{}{}:
		default:
		}
	}
}

// publish is the loop's plan before it realigns a task against the
// triangle of k tops: the next stale tasks in the queue, against a
// snapshot of the triangle taken once per acceptance. The plan holds one
// task per helper and one for the loop, which computes the first free
// entry itself while a helper holds the task it popped: with one per
// helper only, the loop took the entry a helper finishing its task would
// have gone to next, and the helper parked. An acceptance wastes at most
// the plan.
func (a *lookahead) publish(e *Engine, q *TaskQueue, k int) {
	if a.snap == nil || a.snapTops != k {
		a.snap, a.snapTops = e.TriangleSnapshot(), k
	}
	p := &plan{version: k, tri: a.snap}
	p.tasks, a.frontier = q.stale(k, a.helpers+1, e.cfg.MinScore, a.frontier)
	a.plan.Store(p)
	a.nudge()
}

// realign is the loop's Realign of task t, just popped, against the live
// triangle of k = NumTopsFound tops; with no helpers (a nil) or none for
// t, it is Engine.Realign. On a split or group realignment it first
// publishes the plan behind t. Then it takes t's result from its slot
// when a helper has computed it for this triangle; while a helper is
// still on it the loop computes the next task it can claim, and when
// there is none it waits for a split or group and computes a window
// itself, since a window pass can be millions of cells; otherwise it
// computes t itself. Either way the loop applies the result: the helpers'
// work reaches the engine only here.
func (a *lookahead) realign(e *Engine, q *TaskQueue, t *Task, sc *Scratch) (Work, error) {
	k := e.NumTopsFound()
	first := e.origRow(t.R, t.Win) == nil
	s := t.spec // nil unless a helper may compute t
	if s == nil || (a.windows && !first) {
		return e.Realign(t, e.Triangle(), k, sc)
	}
	want, after := genFirst, genTaken
	if !first {
		want, after = realignGen(k), realignGen(k)
		a.publish(e, q, k)
	}
	for {
		w := s.word.Load()
		gen, state := w>>2, w&3
		switch {
		case state == slotDone && gen == want:
			if s.err != nil {
				return s.res.work, s.err
			}
			e.apply(t, &s.res, k)
			s.word.Store(after<<2 | slotFree)
			a.consumed(first)
			return s.res.work, nil
		case state == slotClaimed && gen == want:
			if a.step(e, sc) {
				continue
			}
			if !a.windows {
				a.wait(s, w)
				continue
			}
			// a window: the helper's pass will be waste
		case state == slotClaimed:
			// a helper on an older triangle: its result will be waste
		case !s.word.CompareAndSwap(w, after<<2|slotFree):
			continue
		case state == slotDone:
			e.cfg.Counters.AddSpecWaste() // computed against an older triangle
		}
		a.consumed(first)
		return e.Realign(t, e.Triangle(), k, sc)
	}
}

// wait waits until the word of s is no longer w: a helper has finished
// the result the loop needs.
func (a *lookahead) wait(s *slot, w int64) {
	a.waiting.Store(true)
	if s.word.Load() == w {
		<-a.landed
	}
	a.waiting.Store(false)
}

// consumed advances the first-pass lookahead by one and wakes a parked
// helper.
func (a *lookahead) consumed(first bool) {
	if first {
		a.taken.Add(1)
		a.nudge()
	}
}
