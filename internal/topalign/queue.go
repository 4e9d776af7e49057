package topalign

import (
	"container/heap"

	"repro/internal/align"
)

// Task is one entry of the best-first queue of Figure 5. In scalar mode a
// task is one split; in group mode it is a fixed group of neighbouring
// splits and R is the group's first split.
type Task struct {
	// R identifies the split (scalar mode) or the group's first split
	// (group mode).
	R int
	// Score is an upper bound on the task's next (re)alignment score:
	// the exact score of its most recent alignment, or Infinity if it
	// has never been aligned.
	Score int32
	// AlignedWith is the number of top alignments that had been found
	// when the task was last aligned — i.e. which override triangle the
	// score is exact for. -1 means never aligned.
	AlignedWith int
	// MemberScores holds per-member scores in group mode (Score is
	// their maximum); nil in scalar mode.
	MemberScores []int32
	// Win, when non-nil, makes this a windowed candidate task from the
	// seed-filter-extend prefilter: alignments are confined to Win.Rect
	// and R is the window's bottom row (the alignment's split position).
	// The initial Score of a windowed task is Win.Bound, an admissible
	// upper bound, so best-first pruning stays sound.
	Win *Window

	index int   // heap bookkeeping
	spec  *slot // where a helper computes the window's first alignment ahead of Run's loop; nil outside it
}

// TaskQueue is a max-heap of tasks in one total order (before):
// Score descending, then R ascending, then, between windows, the window's
// (X0, Y0, X1) ascending. The order does not depend on the order tasks
// were pushed in, so a run is a function of its task set: equal-scoring
// candidates are accepted lowest split first, and windows with equal
// rectangles are interchangeable.
type TaskQueue struct {
	h taskHeap
}

// NewTaskQueue returns an empty queue.
func NewTaskQueue() *TaskQueue {
	return &TaskQueue{}
}

// Len returns the number of queued tasks.
func (q *TaskQueue) Len() int { return len(q.h) }

// Push inserts a task.
func (q *TaskQueue) Push(t *Task) { heap.Push(&q.h, t) }

// Pop removes and returns the highest-priority task. It panics on an
// empty queue.
func (q *TaskQueue) Pop() *Task { return heap.Pop(&q.h).(*Task) }

// Peek returns the highest-priority task without removing it, or nil if
// the queue is empty.
func (q *TaskQueue) Peek() *Task {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool { return before(h[i], h[j]) }

// before is the queue's order (TaskQueue): whether a pops before b.
func before(a, b *Task) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.R != b.R || a.Win == nil || b.Win == nil {
		return a.R < b.R
	}
	return rectBefore(a.Win.Rect, b.Win.Rect)
}

// rectBefore orders the windows that tie on score and bottom row: by
// (X0, Y0, X1) ascending.
func rectBefore(x, y align.Rect) bool {
	if x.X0 != y.X0 {
		return x.X0 < y.X0
	}
	if x.Y0 != y.Y0 {
		return x.Y0 < y.Y0
	}
	return x.X1 < y.X1
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
