package seedindex

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// TestCandidateBoundsAdmissible is the property underpinning best-first
// soundness of the prefilter: for every candidate window, no alignment
// confined to the window can score above the candidate's Bound. The
// windowed matrix maximum over all cells dominates the score of every
// such alignment, so checking max(matrix) <= Bound verifies the property
// directly. On failure the test prints a minimal reproducer: the tandem
// spec, the preset and the offending window.
func TestCandidateBoundsAdmissible(t *testing.T) {
	matrices := []string{"BLOSUM62", "PAM250"}
	presets := []string{PresetFast, PresetBalanced}
	profiles := []seq.MutationProfile{
		{},
		{SubstRate: 0.15, IndelRate: 0.02, IndelExt: 0.5},
		{SubstRate: 0.3, IndelRate: 0.05, IndelExt: 0.5},
	}
	sc := align.NewScratch()
	for _, mat := range matrices {
		m, ok := scoring.ByName(mat)
		if !ok {
			t.Fatalf("matrix %s missing", mat)
		}
		p := align.Params{Exch: m, Gap: scoring.DefaultProteinGap}
		for seed := uint64(1); seed <= 8; seed++ {
			for pi, prof := range profiles {
				spec := seq.TandemSpec{
					UnitLen: 30 + int(seed)*7, Copies: 3 + int(seed)%3,
					FlankLen: 25, Profile: prof, Seed: seed,
				}
				s := seq.Tandem(spec).Codes
				for _, preset := range presets {
					cfg, err := PresetConfig(preset, seq.PrimaryLetters(m.Alphabet()))
					if err != nil {
						t.Fatal(err)
					}
					x, err := BuildIndex(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ch := Chain(x, cfg)
					for _, cl := range ch.Clusters {
						// Union coverage: a cluster cannot claim more
						// covered residues than its i-extent holds.
						if cl.Covered > cl.IEnd-cl.IStart {
							t.Fatalf("cluster coverage exceeds i-extent: covered %d > %d\n"+
								"reproducer: matrix=%s preset=%s profile=%d spec=%+v cluster=%+v",
								cl.Covered, cl.IEnd-cl.IStart, mat, preset, pi, spec, cl)
						}
						if cl.Covered <= 0 {
							t.Fatalf("non-positive cluster coverage %d: %+v", cl.Covered, cl)
						}
					}
					cands := Candidates(ch, cfg, len(s), m.MaxScore())
					for _, c := range cands {
						if err := c.Rect.Validate(len(s)); err != nil {
							t.Fatalf("reproducer: matrix=%s preset=%s profile=%d spec=%+v window=%+v: %v",
								mat, preset, pi, spec, c.Rect, err)
						}
						w := c.Rect // unmasked: the window's matrix is the matrix of its operands
						mtx := sc.Matrix(p, s[w.Y0-1:w.Y1], s[w.X0-1:w.X1], nil, 0)
						var max int32
						for _, row := range mtx {
							for _, v := range row {
								if v > max {
									max = v
								}
							}
						}
						if max > c.Bound {
							t.Fatalf("bound not admissible: true window max %d > bound %d\n"+
								"reproducer: matrix=%s preset=%s profile=%d spec=%+v window=%+v",
								max, c.Bound, mat, preset, pi, spec, c.Rect)
						}
					}
				}
			}
		}
	}
}

// TestBoundFormula pins the bound to its closed form: MaxScore per
// matched pair times the shorter window side, since gaps only subtract.
func TestBoundFormula(t *testing.T) {
	r := align.Rect{Y0: 5, Y1: 14, X0: 40, X1: 99}
	if got, want := admissibleBound(r, 11), int32(11*10); got != want {
		t.Fatalf("bound = %d, want %d", got, want)
	}
	r = align.Rect{Y0: 1, Y1: 100, X0: 101, X1: 103}
	if got, want := admissibleBound(r, 17), int32(17*3); got != want {
		t.Fatalf("bound = %d, want %d", got, want)
	}
}
