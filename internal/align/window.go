package align

import (
	"fmt"

	"repro/internal/triangle"
)

// Rect is a rectangular window in global pair space: rows Y0..Y1 are
// prefix positions, columns X0..X1 suffix positions (all 1-based,
// inclusive) of one sequence, with Y1 < X0 so that every cell (y, x) of
// the window is a valid ordered pair y < x of the override triangle.
//
// The windowed entry points below are the banded-extension stage of the
// seed-filter-extend prefilter (DESIGN.md section 13): they run the
// shared kernel bodies on the window's operand slices at the window's
// offset, with the zero local-alignment boundary on the window edges —
// split r is the window {1, r, r+1, m}, which is how the engine aligns
// it. The window must satisfy Validate; the kernels do not check. An
// alignment confined to the window scores identically to the full
// matrix; alignments that would enter the window from outside are lost —
// that is the prefilter's sensitivity trade, bounded by the candidate
// padding chosen in internal/seedindex.
type Rect struct {
	Y0, Y1, X0, X1 int
}

// H returns the window height (rows).
func (w Rect) H() int { return w.Y1 - w.Y0 + 1 }

// W returns the window width (columns).
func (w Rect) W() int { return w.X1 - w.X0 + 1 }

// Cells returns the number of matrix entries a windowed score pass
// computes.
func (w Rect) Cells() int64 { return Cells(w.H(), w.W()) }

// Validate rejects windows that are empty, out of range for sequence
// length m, or that touch the diagonal (Y1 must stay below X0 so every
// cell maps to an ordered triangle pair).
func (w Rect) Validate(m int) error {
	if w.Y0 < 1 || w.Y1 < w.Y0 || w.X0 <= w.Y1 || w.X1 < w.X0 || w.X1 > m {
		return fmt.Errorf("align: invalid window rows [%d,%d] cols [%d,%d] for length %d",
			w.Y0, w.Y1, w.X0, w.X1, m)
	}
	return nil
}

// ScoreWindow computes the windowed local-alignment matrix of s against
// itself over window w and returns the window's bottom row (row w.Y1,
// columns w.X0..w.X1). tri == nil disables override masking. It is the
// byte rung's entry point: where the int16 rung would serve the window
// and the byte rung is active, the pass runs in bytes first and hands
// over to the int16 rung at the first row with a cell at the flag level
// (Tier and Wasted report what happened). The returned row is
// arena-owned and valid until the next call on sc.
func (sc *Scratch) ScoreWindow(p Params, s []byte, w Rect, tri *triangle.Triangle) []int32 {
	return sc.score(p, s[w.Y0-1:w.Y1], s, w.X0-1, w.X1, tri, w.Y0-1, w.X0-1, true)
}

// ScoreWindowWide is ScoreWindow without the byte rung: the pass runs on
// the tier RowTier names. The engine's split passes take it.
func (sc *Scratch) ScoreWindowWide(p Params, s []byte, w Rect, tri *triangle.Triangle) []int32 {
	return sc.score(p, s[w.Y0-1:w.Y1], s, w.X0-1, w.X1, tri, w.Y0-1, w.X0-1, false)
}
