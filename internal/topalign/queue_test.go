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
// (X0, Y0, X1) ascending, whatever order they were pushed in.
func TestQueueWindowTiesByRect(t *testing.T) {
	win := func(y0, x0, x1 int) *Task {
		return &Task{R: 20, Score: 7, Win: &Window{Rect: align.Rect{Y0: y0, Y1: 20, X0: x0, X1: x1}}}
	}
	want := []*Task{win(5, 30, 40), win(1, 31, 35), win(3, 31, 35), win(3, 31, 36), win(1, 50, 60)}
	r := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 20; trial++ {
		q := NewTaskQueue()
		for _, i := range r.Perm(len(want)) {
			q.Push(want[i])
		}
		for i := range want {
			if got := q.Pop(); got != want[i] {
				t.Fatalf("trial %d pop %d: rect %+v, want %+v", trial, i, got.Win.Rect, want[i].Win.Rect)
			}
		}
	}
}
