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
	return &Result{
		SeqLen: e.Len(),
		Tops:   e.Tops(),
		Stats:  e.cfg.Counters.Snapshot(),
	}, nil
}

// Run drives an engine to completion over queue q: the sequential
// best-first loop of Figure 5, and the only one — Find and RunWindows
// hand it their initial queues, the cluster master the queue it is left
// with when its last slave dies. Tasks keep whatever score and stamp
// they carry (stale scores are upper bounds), so a queue may be drained
// from any state. sc supplies the kernel arenas.
func Run(e *Engine, q *TaskQueue, sc *Scratch) error {
	cfg := e.Config()
	for e.NumTopsFound() < cfg.NumTops && q.Len() > 0 {
		t := q.Pop()
		if t.Score != Infinity && t.Score < cfg.MinScore {
			// The best possible remaining score is below threshold:
			// no further top alignment is worth accepting.
			return nil
		}
		if t.AlignedWith == e.NumTopsFound() {
			// The task's score is exact under the current triangle and
			// it is the queue's maximum: accept it (lines 12-14 of
			// Figure 5).
			if _, err := e.Accept(t, sc); err != nil {
				return err
			}
		} else {
			// Stale: realign against the current triangle (lines 16-17).
			e.Realign(t, e.Triangle(), e.NumTopsFound(), sc)
		}
		q.Push(t)
	}
	return nil
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
