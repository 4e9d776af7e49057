package align

import (
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// The scratch-based score kernels must be allocation-free once warm:
// every buffer comes from the Scratch arena, which grows monotonically
// and is reset, never reallocated, on reuse. This is the PR's hot-path
// contract (DESIGN.md section 10); a regression here silently reopens
// the per-alignment make traffic the arena removed.
func TestScoreKernelsZeroAllocsWarm(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(300, 2)
	m := full.Len()
	r := m / 3
	s1, s2 := full.Codes[:r], full.Codes[r:]
	tri := triangle.New(m)
	for _, pr := range [][2]int{{10, 120}, {10, 121}, {40, 250}, {r - 1, r + 5}} {
		tri.Set(pr[0], pr[1])
	}

	sc := NewScratch()
	cases := []struct {
		name string
		f    func()
	}{
		{"Score", func() { sc.Score(p, s1, s2) }},
		{"ScoreMasked", func() { sc.ScoreMasked(p, s1, s2, tri, r) }},
		{"ScoreStriped", func() { sc.ScoreStriped(p, s1, s2, tri, r, 64) }},
		{"ScoreWindow", func() { sc.ScoreWindow(p, full.Codes, Rect{Y0: 5, Y1: 60, X0: 100, X1: 260}, nil) }},
		{"ScoreWindow masked", func() { sc.ScoreWindow(p, full.Codes, Rect{Y0: 5, Y1: 60, X0: 100, X1: 260}, tri) }},
	}
	for _, rung := range rowRungs() {
		restore := rung.force(t)
		for _, c := range cases {
			c.f() // warm the arena
			if allocs := testing.AllocsPerRun(50, c.f); allocs != 0 {
				t.Errorf("%s on %s: %.1f allocs/op on warm scratch, want 0", c.name, rung, allocs)
			}
		}
		restore()
	}
}

// The traceback paths reuse the Scratch arenas — the matrix or block
// arena, the checkpoints and the pair accumulator; on a warm scratch a
// same-size traceback should stay within a couple of allocations (the
// returned Alignment itself): the full-matrix Traceback, and the block
// traceback after the masked pass that keeps its checkpoints, with the
// window in blocks of the default height and of a few rows, and from
// checkpoints a pass in segmented rows kept.
func TestTracebackLowAllocsWarm(t *testing.T) {
	p := Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(200, 5)
	r := full.Len() / 2
	s1, s2 := full.Codes[:r], full.Codes[r:]
	w := Rect{Y0: 1, Y1: r, X0: r + 1, X1: full.Len()}
	tri := triangle.New(full.Len())
	tri.Set(10, 150)

	sc := NewScratch()
	cases := []struct {
		name string
		k    int // block rows; 0 = the default
		run  func()
		segs bool // the masked pass in segmented rows, on the int16 rung
	}{
		{name: "matrix", run: func() {
			mtx := sc.Matrix(p, s1, s2, nil, r)
			endX, _, _ := BestValidEnd(mtx[len(s1)][1:], nil)
			if endX == 0 {
				t.Fatal("no alignment end found")
			}
			if _, err := sc.Traceback(p, mtx, s1, s2, nil, r, endX); err != nil {
				t.Fatal(err)
			}
		}},
		{"blocks", 0, nil, false},
		{"blocks of 7 rows", 7, nil, false},
		{"blocks of 7 rows from segments", 7, nil, true},
	}
	blocks := func() {
		sc.ScoreWindow(p, full.Codes, w, tri)
		if _, err := sc.TracebackBlocks(p, full.Codes, w, tri, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		if c.run == nil {
			c.run = blocks
		}
		if c.segs && DetectedTier() < TierInt16x16 {
			continue
		}
		rung := rowRung{tier: ActiveTier()}
		if c.segs {
			rung = rowRung{tier: TierInt16x16, segs: true}
		}
		restoreRung := rung.force(t)
		restore := setBlockRows(c.k)
		c.run()
		// The Alignment struct and its retained Pairs copy are returned to
		// the caller, so they are necessarily fresh allocations; everything
		// else must come from the arena.
		if allocs := testing.AllocsPerRun(20, c.run); allocs > 3 {
			t.Errorf("traceback (%s): %.1f allocs/op on warm scratch, want <= 3", c.name, allocs)
		}
		if c.k > 0 && sc.Blocks() < 2 {
			t.Errorf("traceback (%s): %d blocks, want several", c.name, sc.Blocks())
		}
		restore()
		restoreRung()
	}
}
