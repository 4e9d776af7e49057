package topalign

// Find computes cfg.NumTops nonoverlapping top alignments of s using the
// paper's sequential algorithm (Figure 5). It returns fewer alignments
// if no remaining candidate reaches cfg.MinScore.
func Find(s []byte, cfg Config) (*Result, error) {
	e, err := NewEngine(s, cfg)
	if err != nil {
		return nil, err
	}
	if err := Run(e, InitialQueue(e), NewScratch()); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// Decision is what a best-first driver does with the head of its queue.
type Decision int

const (
	// Stop: nothing in the queue can become a further top alignment.
	Stop Decision = iota
	// Accept the head as the next top alignment (Engine.Accept).
	Accept
	// Realign the head against the current triangle (Engine.Realign).
	Realign
)

// Decide is the decision of Figure 5, stated once for every driver:
// given the task at the head of the queue (nil when the queue is empty)
// and the number of top alignments accepted so far, stop when NumTops
// are found or the head — the best remaining upper bound — is below
// MinScore; accept the head when its score is exact for the current
// triangle (lines 12-14); otherwise realign it (lines 16-17). A
// never-aligned task carries Infinity or its window's bound and the
// stamp -1, so it is realigned before it can be accepted.
//
// The sequential loop acts on the answer at once. A concurrent scheduler
// adds only its own state: with results in flight a Stop may be
// overturned by one of them landing, and strict mode holds an Accept
// back until none is.
func Decide(cfg Config, head *Task, tops int) Decision {
	switch {
	case head == nil || tops >= cfg.NumTops || head.Score < cfg.MinScore:
		return Stop
	case head.AlignedWith == tops:
		return Accept
	}
	return Realign
}

// Run drives an engine to completion over queue q: the sequential
// best-first loop of Figure 5, and the only one — Find and RunWindows
// hand it their initial queues, package parallel a process-sized run
// that got one worker. Tasks keep whatever score and stamp they carry
// (stale scores are upper bounds), so a queue may be drained from any
// state. sc supplies the kernel arenas.
//
// The loop is one goroutine that decides, aligns, accepts and counts,
// and counts itself engaged while it runs. On a windowed queue, helpers
// compute never-aligned windows' first alignments ahead of it on the
// cores no other engine goroutine of the process holds (lookahead); a
// first alignment ignores the triangle, so the report, the work counters
// and the OnRealign sequence are those of the loop alone. An exact queue
// runs on this goroutine only.
func Run(e *Engine, q *TaskQueue, sc *Scratch) error {
	a := e.startHelpers(q) // nil when no helper starts
	defer a.stop(e)
	Engage()
	defer Release()
	cfg := e.Config()
	for {
		switch Decide(cfg, q.Peek(), e.NumTopsFound()) {
		case Stop:
			return nil
		case Accept:
			t := q.Pop()
			if _, err := e.Accept(t, sc); err != nil {
				return err
			}
			q.Push(t)
		case Realign:
			t := q.Pop()
			w, err := a.realign(e, t, sc)
			if err != nil {
				return err
			}
			e.Count(t, w)
			q.Push(t)
		}
	}
}

// InitialQueue builds the initial task queue for an engine: one task per
// split in scalar mode, one per fixed neighbour group in group mode, all
// with infinite score and never aligned (lines 2-7 of Figure 5).
func InitialQueue(e *Engine) *TaskQueue {
	q := NewTaskQueue()
	lanes := e.Config().GroupLanes
	for r := 1; r <= e.NumSplits(); r += lanes {
		q.Push(&Task{R: r, Score: Infinity, AlignedWith: -1})
	}
	return q
}
