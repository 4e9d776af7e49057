package topalign

import (
	"testing"

	"repro/internal/align"
)

// The truth table of the one best-first decision every driver asks.
func TestDecide(t *testing.T) {
	cfg := Config{NumTops: 5, MinScore: 20}
	win := &Window{Rect: align.Rect{Y0: 1, Y1: 4, X0: 5, X1: 12}, Bound: 57}
	for _, tc := range []struct {
		name string
		head *Task
		tops int
		want Decision
	}{
		{"empty queue", nil, 2, Stop},
		{"all tops found, head current", &Task{R: 1, Score: 90, AlignedWith: 5}, 5, Stop},
		{"all tops found, head stale", &Task{R: 1, Score: 90, AlignedWith: 3}, 5, Stop},
		{"head below MinScore, current", &Task{R: 1, Score: 19, AlignedWith: 2}, 2, Stop},
		{"head below MinScore, stale", &Task{R: 1, Score: 19, AlignedWith: 0}, 2, Stop},
		{"head at MinScore, current", &Task{R: 1, Score: 20, AlignedWith: 2}, 2, Accept},
		{"head at MinScore, stale", &Task{R: 1, Score: 20, AlignedWith: 1}, 2, Realign},
		{"never aligned", &Task{R: 1, Score: Infinity, AlignedWith: -1}, 0, Realign},
		{"never aligned, tops exist", &Task{R: 1, Score: Infinity, AlignedWith: -1}, 3, Realign},
		{"window carrying its bound", &Task{R: 4, Score: win.Bound, AlignedWith: -1, Win: win}, 0, Realign},
		{"window whose bound is below MinScore", &Task{R: 4, Score: 19, AlignedWith: -1, Win: win}, 0, Stop},
		{"first aligned after tops exist: stamped 0", &Task{R: 1, Score: 40, AlignedWith: 0}, 3, Realign},
		{"current stamp, no tops yet", &Task{R: 1, Score: 40, AlignedWith: 0}, 0, Accept},
		{"current stamp", &Task{R: 1, Score: 40, AlignedWith: 4}, 4, Accept},
		{"stale stamp", &Task{R: 1, Score: 40, AlignedWith: 3}, 4, Realign},
	} {
		if got := Decide(cfg, tc.head, tc.tops); got != tc.want {
			t.Errorf("%s: Decide = %d, want %d", tc.name, got, tc.want)
		}
	}
}
