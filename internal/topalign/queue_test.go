package topalign

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/align"
)

func TestQueueOrdering(t *testing.T) {
	q := NewTaskQueue()
	q.Push(&Task{R: 3, Score: 10})
	q.Push(&Task{R: 1, Score: 30})
	q.Push(&Task{R: 2, Score: 20})
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop().R)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueueTieBreaksByLowerSplit(t *testing.T) {
	q := NewTaskQueue()
	q.Push(&Task{R: 9, Score: 5})
	q.Push(&Task{R: 2, Score: 5})
	q.Push(&Task{R: 5, Score: 5})
	if r := q.Pop().R; r != 2 {
		t.Errorf("first pop R = %d, want 2", r)
	}
	if r := q.Pop().R; r != 5 {
		t.Errorf("second pop R = %d, want 5", r)
	}
}

func TestQueueInfinityFirst(t *testing.T) {
	q := NewTaskQueue()
	q.Push(&Task{R: 1, Score: 1000000})
	q.Push(&Task{R: 2, Score: Infinity})
	if got := q.Pop(); got.R != 2 {
		t.Errorf("popped R=%d, want the infinite-score task", got.R)
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewTaskQueue()
	if q.Peek() != nil {
		t.Error("Peek on empty queue not nil")
	}
	q.Push(&Task{R: 1, Score: 5})
	q.Push(&Task{R: 2, Score: 7})
	if p := q.Peek(); p == nil || p.R != 2 {
		t.Errorf("Peek = %v", p)
	}
	if q.Len() != 2 {
		t.Error("Peek removed an element")
	}
}

// Property: popping a randomly filled queue yields tasks sorted by
// (score desc, r asc).
func TestQueueSortProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(200)
		q := NewTaskQueue()
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{R: i + 1, Score: int32(r.IntN(20))}
			q.Push(tasks[i])
		}
		sort.Slice(tasks, func(i, j int) bool {
			if tasks[i].Score != tasks[j].Score {
				return tasks[i].Score > tasks[j].Score
			}
			return tasks[i].R < tasks[j].R
		})
		for i := 0; i < n; i++ {
			got := q.Pop()
			if got.Score != tasks[i].Score || got.R != tasks[i].R {
				t.Fatalf("trial %d pos %d: got (r=%d,s=%d), want (r=%d,s=%d)",
					trial, i, got.R, got.Score, tasks[i].R, tasks[i].Score)
			}
		}
	}
}

func TestQueueReinsertion(t *testing.T) {
	// simulates the Figure 5 loop: pop, lower the score, reinsert
	q := NewTaskQueue()
	for r := 1; r <= 5; r++ {
		q.Push(&Task{R: r, Score: int32(10 * r)})
	}
	top := q.Pop() // r=5, score 50
	top.Score = 15
	q.Push(top)
	if got := q.Pop(); got.R != 4 || got.Score != 40 {
		t.Errorf("after reinsertion got (r=%d,s=%d), want (4,40)", got.R, got.Score)
	}
}

// Windows that tie on score and bottom row pop by their rectangles,
// (X0, Y0, X1) ascending, whatever order they were pushed in, from the
// heap and from the never-aligned list alike.
func TestQueueWindowTiesByRect(t *testing.T) {
	win := func(y0, x0, x1 int) *Task {
		return &Task{R: 20, Score: 7, Win: &Window{Rect: align.Rect{Y0: y0, Y1: 20, X0: x0, X1: x1}}}
	}
	want := []*Task{win(5, 30, 40), win(1, 31, 35), win(3, 31, 35), win(3, 31, 36), win(1, 50, 60)}
	r := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 20; trial++ {
		q := NewTaskQueue()
		for _, i := range r.Perm(len(want)) {
			want[i].AlignedWith = -(trial % 2) // odd trials: never aligned
			q.Push(want[i])
		}
		for i := range want {
			if got := q.Pop(); got != want[i] {
				t.Fatalf("trial %d pop %d: rect %+v, want %+v", trial, i, got.Win.Rect, want[i].Win.Rect)
			}
		}
	}
}

// Property: with never-aligned tasks on the sorted list and aligned ones
// in the heap, any sequence of pushes and pops — never-aligned tasks
// pushed before and while the queue drains, popped tasks pushed back
// unchanged or realigned to a lower score — pops the order's first task
// every time, and Len counts both parts.
func TestQueueListAndHeapProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 200; trial++ {
		q := NewTaskQueue()
		var live []*Task
		push := func(task *Task) {
			q.Push(task)
			live = append(live, task)
		}
		for i := r.IntN(50); i >= 0; i-- {
			push(&Task{R: 1 + r.IntN(40), Score: int32(r.IntN(30)), AlignedWith: -1})
		}
		for step := 0; step < 300 && len(live) > 0; step++ {
			if q.Len() != len(live) {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, q.Len(), len(live))
			}
			first := 0
			for i, task := range live {
				if before(task, live[first]) {
					first = i
				}
			}
			want := live[first]
			if p := q.Peek(); p.Score != want.Score || p.R != want.R {
				t.Fatalf("trial %d step %d: Peek (r=%d,s=%d), want (r=%d,s=%d)", trial, step, p.R, p.Score, want.R, want.Score)
			}
			got := q.Pop()
			if got.Score != want.Score || got.R != want.R {
				t.Fatalf("trial %d step %d: Pop (r=%d,s=%d), want (r=%d,s=%d)", trial, step, got.R, got.Score, want.R, want.Score)
			}
			for i, task := range live {
				if task == got {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			switch r.IntN(4) {
			case 0: // dropped
			case 1: // pushed back unchanged, as a scheduler requeues a task it could not run
				push(got)
			case 2: // realigned
				got.Score, got.AlignedWith = int32(r.IntN(int(got.Score)+1)), step
				push(got)
			case 3: // a new never-aligned task arrives
				push(got)
				push(&Task{R: 1 + r.IntN(40), Score: int32(r.IntN(30)), AlignedWith: -1})
			}
		}
	}
}

// Fresh tasks never reach the heap: a queue of never-aligned windows
// that is drained in order pushes nothing into it, and a realigned task
// is the only thing that does.
func TestQueueFreshTasksSkipTheHeap(t *testing.T) {
	q := NewTaskQueue()
	for r := 1; r <= 100; r++ {
		q.Push(&Task{R: r, Score: Infinity, AlignedWith: -1})
	}
	if len(q.h) != 0 {
		t.Fatalf("%d never-aligned tasks in the heap", len(q.h))
	}
	first := q.Pop()
	q.Push(first) // pushed back unchanged: takes the list's head again
	if len(q.h) != 0 || q.Peek() != first {
		t.Fatalf("a task pushed back unchanged went to the heap or lost its place")
	}
	q.Pop()
	first.Score, first.AlignedWith = 5, 0
	q.Push(first)
	if len(q.h) != 1 || q.Len() != 100 {
		t.Fatalf("after a realignment: heap %d, Len %d; want 1, 100", len(q.h), q.Len())
	}
	for r := 2; r <= 100; r++ {
		if got := q.Pop(); got.R != r {
			t.Fatalf("pop R=%d, want %d", got.R, r)
		}
	}
	if got := q.Pop(); got != first || q.Peek() != nil {
		t.Fatalf("the realigned task did not pop last")
	}
}
