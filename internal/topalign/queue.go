package topalign

import (
	"container/heap"
	"slices"

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

// TaskQueue holds tasks in one total order (before): Score descending,
// then R ascending, then, between windows, the window's (X0, Y0, X1)
// ascending. The order does not depend on the order tasks were pushed
// in, so a run is a function of its task set: equal-scoring candidates
// are accepted lowest split first, and windows with equal rectangles are
// interchangeable.
//
// Never-aligned tasks (AlignedWith < 0) — every task of a fresh queue —
// wait in a list sorted once, on the first Peek or Pop after they were
// pushed, and consumed from its head; aligned tasks, which the loop
// pushes back after every realignment and accept, go into a max-heap.
// Peek and Pop take whichever of the two heads comes first. A queue of
// 16 k windows of which a few dozen are ever realigned thus sorts once
// and pops from a heap of a few dozen.
type TaskQueue struct {
	h      taskHeap
	fresh  []*Task // never-aligned tasks, the list's head at next
	next   int
	sorted bool // fresh[next:] is in order
}

// NewTaskQueue returns an empty queue.
func NewTaskQueue() *TaskQueue {
	return &TaskQueue{}
}

// Len returns the number of queued tasks.
func (q *TaskQueue) Len() int { return len(q.h) + len(q.fresh) - q.next }

// Push inserts a task. A never-aligned task that comes no later than the
// list's head — one just popped and pushed back unchanged — takes the
// head's place; any other goes to the end of the list, which is sorted
// again before the next Peek or Pop.
func (q *TaskQueue) Push(t *Task) {
	switch {
	case t.AlignedWith >= 0:
		heap.Push(&q.h, t)
	case q.sorted && q.next > 0 && (q.next == len(q.fresh) || !before(q.fresh[q.next], t)):
		q.next--
		q.fresh[q.next] = t
	default:
		q.fresh = append(q.fresh, t)
		q.sorted = false
	}
}

// Pop removes and returns the highest-priority task. It panics on an
// empty queue.
func (q *TaskQueue) Pop() *Task {
	if q.listFirst() {
		t := q.fresh[q.next]
		q.fresh[q.next] = nil
		q.next++
		if q.next == len(q.fresh) {
			q.fresh, q.next = q.fresh[:0], 0
		}
		return t
	}
	return heap.Pop(&q.h).(*Task)
}

// Peek returns the highest-priority task without removing it, or nil if
// the queue is empty.
func (q *TaskQueue) Peek() *Task {
	switch {
	case q.listFirst():
		return q.fresh[q.next]
	case len(q.h) > 0:
		return q.h[0]
	}
	return nil
}

// listFirst sorts the never-aligned list if it needs it and reports
// whether its head comes before the heap's.
func (q *TaskQueue) listFirst() bool {
	if q.next == len(q.fresh) {
		return false
	}
	q.sortList()
	return len(q.h) == 0 || !before(q.h[0], q.fresh[q.next])
}

// neverAligned returns the never-aligned tasks in the order Pop will
// return them. The slice is the queue's own.
func (q *TaskQueue) neverAligned() []*Task {
	q.sortList()
	return q.fresh[q.next:]
}

func (q *TaskQueue) sortList() {
	if !q.sorted {
		slices.SortFunc(q.fresh[q.next:], func(a, b *Task) int {
			switch {
			case before(a, b):
				return -1
			case before(b, a):
				return 1
			}
			return 0
		})
		q.sorted = true
	}
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
