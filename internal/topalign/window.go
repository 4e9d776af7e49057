package topalign

import (
	"fmt"

	"repro/internal/align"
)

// Window is a candidate region produced by the seed-filter-extend
// prefilter (internal/seedindex). Alignment is confined to Rect; Bound
// is an admissible upper bound on any alignment score inside the window
// (see DESIGN.md section 13), used as the task's initial queue score so
// that the best-first driver prunes soundly: a task is only accepted
// after an exact (re)alignment, and its score never increases.
type Window struct {
	// Rect is the window in global pair coordinates (Rect.Y1 < Rect.X0).
	Rect align.Rect
	// Bound is an admissible upper bound on the best alignment score in
	// the window: Bound >= true score, always.
	Bound int32

	// orig is the window's original (unmasked) bottom row, recorded on
	// first alignment and used for shadow rejection on realignments. The
	// memory is a slab of the scratch that computed it (Scratch.keep),
	// the slice this window's.
	orig []int32
}

// Aligned reports whether the window has had its first (unmasked)
// alignment, i.e. whether its original bottom row has been recorded.
func (w *Window) Aligned() bool { return w.orig != nil }

// RunWindows drives an engine over a set of windowed candidate tasks to
// completion: it checks the caller-built tasks, queues them at the
// scores they carry (their admissible bounds) and hands the queue to
// Run, which terminates when NumTops alignments are accepted or the
// best remaining upper bound drops below MinScore. Run's helpers compute
// never-aligned windows' first alignments ahead of the loop; window
// realignments stay the loop's, being a few microseconds each against a
// triangle snapshot of a millisecond at 60 k residues. All goroutines of
// the run read one query profile.
//
// The kernels index the sequence and the override triangle by the
// rectangle without checking it, so every task is validated before the
// first alignment: it must carry a Window whose Rect lies inside the
// sequence and clear of the diagonal, and R must name the rectangle's
// bottom row (the split its alignments are reported under).
func RunWindows(e *Engine, tasks []*Task) error {
	q := NewTaskQueue()
	for _, t := range tasks {
		if t.Win == nil {
			return fmt.Errorf("topalign: RunWindows given non-windowed task r=%d", t.R)
		}
		if err := t.Win.Rect.Validate(e.Len()); err != nil {
			return fmt.Errorf("topalign: RunWindows task r=%d: %w", t.R, err)
		}
		if t.R != t.Win.Rect.Y1 {
			return fmt.Errorf("topalign: RunWindows task r=%d does not name its window's bottom row %d", t.R, t.Win.Rect.Y1)
		}
		if !t.Win.Aligned() {
			t.AlignedWith = -1 // whatever the caller wrote, its score is a bound, not an alignment
		}
		q.Push(t)
	}
	sc := NewScratch()
	sc.A.ShareProfile(e.WindowProfile())
	return Run(e, q, sc)
}
