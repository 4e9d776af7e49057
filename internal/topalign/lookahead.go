package topalign

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs/attrib"
)

// lookaheadPerHelper is how many first alignments each helper may have
// finished beyond those the loop has consumed: the lookahead is a fixed
// multiple of the helper count. It bounds the passes computed for nothing
// when the run stops, and the rows they keep. Of 4, 8, 16 and 64, 16 read
// best on small protein windows and 64 no better; every pass past the
// loop's last is pure cost, and a DNA window is millions of cells.
const lookaheadPerHelper = 16

// Slot states. A helper moves a slot free → claimed → done, the loop
// done → taken when it applies the result, or free → taken when it
// computes the window itself.
const (
	slotFree int32 = iota
	slotClaimed
	slotDone
	slotTaken
)

// slot holds one window's first alignment computed ahead of the loop:
// res and err are written by the helper that claimed the slot before it
// stores slotDone, and read by the loop only after it has seen slotDone.
type slot struct {
	state atomic.Int32
	task  *Task
	res   realignment
	err   error
}

// lookahead is a windowed run's first-pass helpers: up to GOMAXPROCS-1
// goroutines, one per core the engaged count leaves free, that compute
// never-aligned windows' first alignments (Engine.compute) into the
// windows' slots, in the order the queue will pop them, at most limit
// passes beyond the ones the loop has consumed. A first alignment ignores
// the triangle, so it is a function of the window alone and needs nothing
// the loop changes. Helpers touch neither the queue, the task nor the
// triangle, and count nothing but their CPU and the waste: the loop
// applies the result (realign) and counts it as if it had computed it.
type lookahead struct {
	slots  []slot                  // one per never-aligned window, in task order
	order  atomic.Pointer[[]int32] // slots in queue order, once the first helper has sorted them
	sorted chan struct{}           // closed when order is set
	next   atomic.Int64            // the next position of order a helper may claim
	taken  atomic.Int64            // first alignments the loop has consumed
	limit  int64                   // helpers * lookaheadPerHelper
	parked atomic.Int32            // helpers waiting for the loop to consume
	procs  int32                   // GOMAXPROCS when the run started
	wake   chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
}

// engaged counts the goroutines of this process that run engine work
// and take a core for it: every Run loop — the exact one-core loop, a
// windowed run's loop, a cluster master finishing alone — every helper,
// and every shared-memory worker (Engage, Reserve). Helpers and
// process-sized workers are sized from it, so that analyses running side
// by side (a serve worker pool) keep a core each before any of them gets
// a second, and a helper or such a worker retires when a loop starting
// later finds every core taken. Cluster slaves are not counted. It is
// package state on purpose: the cores it shares out are the process's,
// and the analyses that compete for them have no caller in common.
var engaged atomic.Int32

// Engage counts the calling goroutine as engaged in engine work until it
// calls Release, so that helpers and process-sized workers of other
// analyses leave its core alone. A scheduler's workers call it (package
// parallel).
func Engage() { engaged.Add(1) }

// Release gives back one engaged place: one Engage counted or Reserve
// claimed.
func Release() { engaged.Add(-1) }

// Reserve claims up to procs-1 places beside the calling goroutine,
// which is not counted yet: as many as leave no more engaged goroutines
// than procs. The caller gives each one back with Release, or with
// Retire.
func Reserve(procs int32) int32 {
	for {
		n := engaged.Load()
		places := procs - 1 - n
		if places < 1 {
			return 0
		}
		if engaged.CompareAndSwap(n, n+places) {
			return places
		}
	}
}

// Retire gives up a reserved place when more goroutines are engaged than
// procs, and reports whether it did.
func Retire(procs int32) bool {
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

// startHelpers starts the helpers over windowed queue q's never-aligned
// windows, or returns nil and starts nothing: on an exact queue, whose
// loop runs alone (the multi-core scheduler of exact runs is package
// parallel), with no core to spare (GOMAXPROCS 1, or as many engaged
// goroutines as cores), or with fewer than two windows to align for the
// first time.
func (e *Engine) startHelpers(q *TaskQueue) *lookahead {
	procs := int32(runtime.GOMAXPROCS(0))
	if procs < 2 || q.Len() < 2 || q.h[0].Win == nil {
		return nil
	}
	a := &lookahead{slots: make([]slot, 0, q.Len()), procs: procs}
	keys := make([]queueKey, 0, q.Len())
	for _, t := range q.h {
		if !t.Win.Aligned() {
			desc := ^(uint32(t.Score) ^ 1<<31) // order-preserving for int32, then flipped
			keys = append(keys, queueKey{order: uint64(desc)<<32 | uint64(uint32(t.R)), slot: int32(len(a.slots))})
			a.slots = append(a.slots, slot{task: t})
		}
	}
	if len(a.slots) < 2 {
		return nil
	}
	helpers := int(Reserve(procs))
	if helpers == 0 {
		return nil
	}
	for i := range a.slots {
		a.slots[i].task.spec = &a.slots[i]
	}
	a.limit = int64(helpers * lookaheadPerHelper)
	a.sorted = make(chan struct{})
	a.wake = make(chan struct{}, helpers) // a token per helper: consumed never blocks, no parked helper is missed
	a.quit = make(chan struct{})
	a.wg.Add(helpers)
	go a.helper(e, 0, keys)
	for h := 1; h < helpers; h++ {
		go a.helper(e, h, nil)
	}
	return a
}

// stop stops the helpers, if any, counts each first alignment a helper
// finished and the loop never took as spec waste (engine/spec_waste),
// and detaches the slots.
func (a *lookahead) stop(e *Engine) {
	if a == nil {
		return
	}
	close(a.quit)
	a.wg.Wait()
	for i := range a.slots {
		s := &a.slots[i]
		s.task.spec = nil
		if s.state.Load() == slotDone {
			e.cfg.Counters.AddSpecWaste()
		}
	}
}

// queueKey is a never-aligned window's place in the queue's order
// (before), taken before the loop starts changing task scores: order
// packs score descending, then R ascending, into one ascending key.
type queueKey struct {
	order uint64
	slot  int32 // the window's slot
}

// sort publishes the slots in the queue's order. Windows that tie on
// score and R are ordered by their rectangles, as the queue orders them;
// a rectangle does not change, so the helper reads it while the loop
// runs.
func (a *lookahead) sort(keys []queueKey) {
	slices.SortFunc(keys, func(x, y queueKey) int {
		if c := cmp.Compare(x.order, y.order); c != 0 {
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

// helper is one helper goroutine: it claims windows in queue order and
// computes their first alignments with its own scratch, parking when it
// is limit passes ahead of the loop, and retiring when the process has
// more engaged goroutines than cores. The first helper sorts the windows
// into that order, while the loop computes the first of them itself.
// Like a parallel worker, a helper bills its thread CPU to the run and
// records one span for its whole life.
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
		Release()
	}
}

// work claims and computes first alignments until the list is exhausted,
// the run is over or the helper retires, and reports whether the helper
// still holds its engaged place.
func (a *lookahead) work(e *Engine) bool {
	select {
	case <-a.sorted:
	case <-a.quit:
		return true
	}
	sc := NewScratch()
	sc.A.ShareProfile(e.WindowProfile())
	for {
		select {
		case <-a.quit:
			return true
		default:
		}
		if Retire(a.procs) {
			return false
		}
		if s := a.claim(); s != nil {
			a.compute(e, s, sc)
		} else if !a.park() {
			return true
		}
	}
}

// claim claims the next free window within the lookahead, or returns
// nil when there is none: the order is not sorted yet, the list is
// exhausted, or the helpers are limit passes ahead of the loop.
func (a *lookahead) claim() *slot {
	order := a.order.Load()
	if order == nil {
		return nil
	}
	for {
		j := a.next.Load()
		if j >= int64(len(*order)) || j >= a.taken.Load()+a.limit {
			return nil
		}
		if s := &a.slots[(*order)[j]]; a.next.CompareAndSwap(j, j+1) && s.state.CompareAndSwap(slotFree, slotClaimed) {
			return s
		}
	}
}

// park waits until the loop has consumed another first alignment. It
// returns false when the helper should end: the list is exhausted or the
// run is over.
func (a *lookahead) park() bool {
	if a.next.Load() >= int64(len(a.slots)) {
		return false
	}
	a.parked.Add(1)
	defer a.parked.Add(-1)
	if a.next.Load() < a.taken.Load()+a.limit {
		return true // the loop consumed one since claim looked
	}
	select {
	case <-a.wake:
		return true
	case <-a.quit:
		return false
	}
}

// compute computes the first alignment of the window of s, which the
// caller has claimed, into s. Its original row stays in sc's slab, which
// the window keeps once the loop applies the result.
func (a *lookahead) compute(e *Engine, s *slot, sc *Scratch) {
	s.err = e.compute(s.task, true, nil, 0, sc, &s.res)
	s.state.Store(slotDone)
}

// realign is the loop's Realign of task t, just popped, against the live
// triangle; with no helpers, or for anything but a window's first
// alignment, it is Engine.Realign. A window's first alignment comes from
// its slot when a helper has finished it, and is computed on the spot
// when no helper has claimed it. While a helper is still on it the loop
// computes the next claimable window; when none is left it computes t
// itself rather than wait, since a window pass can be millions of cells,
// and the helper's result becomes waste. Either way the loop applies the
// result: the helpers' work reaches the engine only here.
func (a *lookahead) realign(e *Engine, t *Task, sc *Scratch) (Work, error) {
	s := t.spec // nil unless a helper may compute t
	if s != nil && !t.Win.Aligned() {
		defer a.consumed()
		for {
			if s.state.CompareAndSwap(slotDone, slotTaken) {
				if s.err == nil {
					e.apply(t, &s.res, e.NumTopsFound())
				}
				return s.res.work, s.err
			}
			if s.state.CompareAndSwap(slotFree, slotTaken) {
				break
			}
			next := a.claim()
			if next == nil {
				break
			}
			a.compute(e, next, sc)
		}
	}
	return e.Realign(t, e.Triangle(), e.NumTopsFound(), sc)
}

// consumed advances the lookahead by one and wakes a parked helper.
func (a *lookahead) consumed() {
	a.taken.Add(1)
	if a.parked.Load() > 0 {
		select {
		case a.wake <- struct{}{}:
		default:
		}
	}
}
