// Package parallel implements the shared-memory level of the paper's
// three-level parallelisation (Section 4.2): a dynamic task-scheduling
// system in which worker threads repeatedly take the highest-scoring
// unassigned task from the shared best-first queue, realign it, and
// reinsert it. A new top alignment is accepted when the task at the head
// of the queue has already been aligned with the current override
// triangle.
//
// The parallelism is speculative: while one task's acceptance is being
// traced back, other workers keep realigning against the previous
// triangle snapshot. Their results are stamped with the triangle they
// were computed against, so they re-enter the queue as valid upper
// bounds — the paper's "the work for the superfluous tasks is not
// wasted".
//
// Two acceptance modes are provided:
//
//   - Speculative (the paper's): the head task is accepted as soon as it
//     is current, even while other tasks are in flight. Up to a few
//     percent more alignments are performed (the paper measures 8.4%)
//     and equal-scoring tops may be accepted in a different order.
//   - Strict: acceptance additionally waits until no task is in flight.
//     This mode provably yields bit-identical results to the sequential
//     algorithm and is the default for correctness-sensitive callers.
//
// Strict mode sized by the process (Config.Workers 0, Run) is the engine
// of every default exact analysis (repro.Analyze). Its tops are the
// sequential loop's; with more than one worker its work counters vary by
// a few percent from run to run, since which stale task a worker
// realigns against which snapshot is up to timing.
//
// Scheduling discipline (reworked for scalability):
//
//   - The queue is the only state guarded by the mutex; workers hold it
//     just long enough to pop or push a task.
//   - The triangle snapshot and its top count live together in one
//     immutable snapState behind an atomic pointer, so realigning
//     workers and external observers read it without the lock.
//   - Wakeups are targeted: each push or pop signals at most one waiting
//     worker, and a worker that pops while more runnable work remains
//     chains one further signal. Broadcast is reserved for termination.
//     This removes the wake-all convoy where every queue operation woke
//     every worker only for all but one to re-sleep.
//   - Every worker owns a topalign.Scratch, so realignments and
//     tracebacks run allocation-free once warm.
//
// Workers are goroutines; on a multi-core machine they map to OS threads
// exactly like the paper's Pthreads implementation. The composed
// configuration — group tasks (topalign.Config.GroupLanes > 1) under
// this scheduler — is the paper's level composition: each worker
// realigns a group of up to 8 neighbouring splits per grab with the
// SIMD-style group kernel.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs/attrib"
	"repro/internal/topalign"
	"repro/internal/triangle"
)

// Config controls the shared-memory scheduler.
type Config struct {
	// Workers is the number of worker goroutines. 0 sizes the run by
	// what the process can spare (Run); N > 0 runs N workers.
	Workers int
	// Speculative enables the paper's acceptance rule (see package
	// comment). Off = strict mode, bit-identical to sequential.
	Speculative bool
}

// minHelpedCells is the least an exact run's splits must hold, in cells
// (m³/6 for m residues: 1<<24 at m ≈ 465), for a process-sized run to
// start workers beside its first. A worker's start, and the hand-offs of
// an acceptance's realignments between workers, cost about the same
// whatever the run; below this the CPU they add outgrows the wall time
// they save (EXPERIMENTS.md, "The exact loop on every core").
const minHelpedCells = 1 << 24

// Find computes top alignments with the shared-memory scheduler.
func Find(s []byte, cfg topalign.Config, pcfg Config) (*topalign.Result, error) {
	e, err := topalign.NewEngine(s, cfg)
	if err != nil {
		return nil, err
	}
	if err := Run(e, pcfg); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// Run drives an engine to completion with pcfg.Workers goroutines. With
// Workers 0 the process sizes the run: one worker, plus one per core no
// engine goroutine of the process holds (topalign.Reserve), so two
// analyses that start together cannot both take every core; a run whose
// splits hold fewer than minHelpedCells gets one worker. The workers
// after the first give their place up between tasks once more goroutines
// are engaged than there are cores (topalign.Retire). One worker hands
// the queue to topalign.Run, the one-core loop.
func Run(e *topalign.Engine, pcfg Config) error {
	procs := int32(runtime.GOMAXPROCS(0))
	workers, sized := pcfg.Workers, pcfg.Workers <= 0
	if sized {
		workers = 1
		if m := int64(e.Len()); (m-1)*m*(m+1)/6 >= minHelpedCells {
			workers += int(topalign.Reserve(procs))
		}
	}
	if workers == 1 {
		return topalign.Run(e, topalign.InitialQueue(e), topalign.NewScratch())
	}

	st := &sched{e: e, queue: topalign.InitialQueue(e), spec: pcfg.Speculative, procs: procs}
	st.snap.Store(&snapState{tri: e.TriangleSnapshot(), tops: e.NumTopsFound()})
	st.cond = sync.NewCond(&st.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			// One span per worker goroutine, covering its whole scheduling
			// loop — constant overhead regardless of task count.
			cfg := e.Config()
			wsp := cfg.Spans.Start(cfg.SpanParent, "parallel.worker")
			wsp.SetRank(cfg.SpanRank)
			wsp.SetArg(int64(idx))
			defer wsp.End()
			// A worker holds a core, so helpers and process-sized workers
			// of other analyses leave it alone: it counts itself, or
			// holds a place Run reserved, and gives it back unless it
			// retired.
			reserved := sized && idx > 0
			if !reserved {
				topalign.Engage()
			}
			// Pin the worker to its thread and attribute its CPU for
			// the whole loop — one clock read per worker, not per task.
			var sw attrib.Stopwatch
			sw.Start()
			defer func() { cfg.Counters.AddCPU(sw.Stop()) }()
			if !st.worker(topalign.NewScratch(), reserved) {
				topalign.Release()
			}
		}(w)
	}
	wg.Wait()
	return st.err
}

// snapState pairs an immutable triangle clone with the top count it
// corresponds to. Publishing both behind one atomic pointer keeps them
// consistent without holding the scheduler lock to read them.
type snapState struct {
	tri  *triangle.Triangle
	tops int
}

// sched is the shared scheduler state. The queue and the inflight /
// accepting / done bookkeeping are protected by mu; snap is read
// lock-free.
type sched struct {
	mu   sync.Mutex
	cond *sync.Cond

	e     *topalign.Engine
	queue *topalign.TaskQueue

	snap atomic.Pointer[snapState]

	inflight  int
	accepting bool
	done      bool
	err       error

	spec  bool
	procs int32 // GOMAXPROCS when the run started
}

// worker is the scheduling loop each goroutine runs, with its own
// kernel scratch. What to do with the queue head is topalign.Decide's
// answer; the loop adds what only a concurrent scheduler has — results
// in flight that can overturn a Stop, the strict-mode gate on Accept,
// and the wake-ups. A worker on a reserved place retires between tasks
// when more goroutines are engaged than cores, passing on the wake-up it
// may have been sent, and reports that it did.
func (st *sched) worker(sc *topalign.Scratch, reserved bool) (retired bool) {
	cfg := st.e.Config()
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.done {
		if reserved && topalign.Retire(st.procs) {
			st.cond.Signal()
			return true
		}
		snap := st.snap.Load() // coherent: stores happen under mu
		switch topalign.Decide(cfg, st.queue.Peek(), snap.tops) {
		case topalign.Stop:
			if st.inflight == 0 && !st.accepting {
				st.finish(nil)
				return
			}
			st.cond.Wait() // let in-flight results land; they may raise nothing
		case topalign.Accept:
			if st.accepting || (!st.spec && st.inflight > 0) {
				st.cond.Wait()
				continue
			}
			st.accept(st.queue.Pop(), sc)
		case topalign.Realign:
			// Pop under the lock, realign outside it. If more runnable
			// work remains, chain a wakeup so an idle peer can start on
			// it concurrently.
			t := st.queue.Pop()
			st.inflight++
			if st.queue.Len() > 0 {
				st.cond.Signal()
			}
			st.mu.Unlock()

			w, err := st.e.Realign(t, snap.tri, snap.tops, sc)
			if err == nil {
				st.e.Count(t, w)
			}

			st.mu.Lock()
			st.inflight--
			if err != nil {
				st.finish(fmt.Errorf("parallel: %w", err))
				return
			}
			if snap.tops != st.snap.Load().tops {
				// The triangle advanced while we computed: the result is a
				// stale upper bound, the paper's speculation overhead.
				cfg.Counters.AddSpecWaste()
			}
			st.queue.Push(t)
			st.cond.Signal()
		}
	}
	return
}

// accept performs the acceptance (including the sequential traceback)
// for task t. Called with the lock held; the traceback runs unlocked so
// speculative workers can keep realigning against the old snapshot.
func (st *sched) accept(t *topalign.Task, sc *topalign.Scratch) {
	st.accepting = true
	st.mu.Unlock()

	// Only this goroutine touches the engine's mutable state while
	// st.accepting is set; realigning workers use the old snapshot.
	_, err := st.e.Accept(t, sc)

	st.mu.Lock()
	st.accepting = false
	if err != nil {
		st.finish(fmt.Errorf("parallel: %w", err))
		return
	}
	st.snap.Store(&snapState{tri: st.e.TriangleSnapshot(), tops: st.e.NumTopsFound()})
	st.queue.Push(t) // score unchanged: still a valid upper bound
	st.cond.Signal()
}

// finish marks the run complete. Called with the lock held.
func (st *sched) finish(err error) {
	st.done = true
	if err != nil && st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}
