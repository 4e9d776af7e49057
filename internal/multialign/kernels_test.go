package multialign

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

var protein = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

// wide is beyond the int16 lane bias, so 16-lane groups must narrow to
// the exact int32 tier, and on the homopolymer its scores pass the int16
// range.
var wide = align.Params{Exch: scoring.Unit("wide", seq.DNA, 2000, -3), Gap: scoring.PaperGap}

// kernelParams are the scoring models of the harness.
var kernelParams = []struct {
	name string
	p    align.Params
}{
	{"BLOSUM62", protein},
	{"PAM250", align.Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}},
	{"paper-dna", align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}},
	{"dna-unit", align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}},
	{"wide", wide},
}

// kernelInputs are the sequence shapes of the harness, generated in the
// alphabet of the scoring model under test.
var kernelInputs = []struct {
	name string
	gen  func(alpha *seq.Alphabet) []byte
}{
	{"random", func(a *seq.Alphabet) []byte { return seq.Random(a, 72, 3).Codes }},
	{"repeats", func(a *seq.Alphabet) []byte {
		if a == seq.Protein {
			return seq.SyntheticTitin(90, 5).Codes
		}
		return seq.Tandem(seq.TandemSpec{Alpha: a, UnitLen: 7, Copies: 11, Seed: 9}).Codes
	}},
	{"homopolymer", func(*seq.Alphabet) []byte { return make([]byte, 64) }},
	{"m=11", func(a *seq.Alphabet) []byte { return seq.Random(a, 11, 4).Codes }}, // shorter than a 16-lane group
	{"m=3", func(a *seq.Alphabet) []byte { return seq.Random(a, 3, 5).Codes }},   // shorter than every group
	{"m=2", func(a *seq.Alphabet) []byte { return seq.Random(a, 2, 6).Codes }},   // one split, one cell
}

// kernelTriangles are the override states of the harness.
var kernelTriangles = []struct {
	name string
	gen  func(p align.Params, s []byte) *triangle.Triangle
}{
	{"nil", func(align.Params, []byte) *triangle.Triangle { return nil }},
	{"empty", func(_ align.Params, s []byte) *triangle.Triangle { return triangle.New(len(s)) }},
	{"sparse", func(_ align.Params, s []byte) *triangle.Triangle { return randomTriangle(len(s), 0.01, 77) }},
	{"dense", func(_ align.Params, s []byte) *triangle.Triangle { return randomTriangle(len(s), 0.4, 78) }},
	{"accepted-path", acceptedPath},
	{"lane-borders", laneBorders},
	{"pair-neighbours", pairNeighbours},
	{"pair-first-rows", pairHits(false, true, false)},
	{"pair-second-rows", pairHits(false, false, true)},
	{"pair-both-rows", pairHits(false, true, true)},
	{"capture-first-rows", pairHits(true, true, false)},
	{"capture-second-rows", pairHits(true, false, true)},
}

// laneBorders marks, for every group start of the harness, the columns
// either side of the left border of every lane count — group columns 1,
// 7, 8, 15, 16, 17, 31, 32, 33 and the last — in two rows out of three,
// so the post-passes that zero border and mask meet on the same column
// blocks.
func laneBorders(_ align.Params, s []byte) *triangle.Triangle {
	m := len(s)
	tri := triangle.New(m)
	for _, r0 := range groupStarts(m) {
		for _, c := range []int{1, 7, 8, 15, 16, 17, 31, 32, 33, m - r0} {
			if c > m-r0 {
				continue // the group has fewer columns
			}
			for y := 1; y < r0+c; y++ {
				if y%3 != 0 {
					tri.Set(y, r0+c)
				}
			}
		}
	}
	return tri
}

// pairNeighbours marks every third row densely and leaves the two rows
// between clean. Below a group's start the int16 kernel pairs rows
// (1, 2), (3, 4), ..., so the marked rows alternate between a pair's
// first row, whose hits split the pair sweep, and its second, zeroed
// after the sweep, each time beside a clean row.
func pairNeighbours(_ align.Params, s []byte) *triangle.Triangle {
	m := len(s)
	tri := triangle.New(m)
	for y := 3; y < m; y += 3 {
		for j := y + 1; j <= m; j += 2 {
			tri.Set(y, j)
		}
	}
	return tri
}

// pairHits marks, for every group start of the harness, the columns
// where the pair sweeps meet the mask — border columns 1, 8, 15 and 31,
// the first columns past the 16-lane border 16 and 17 and past the
// 32-lane border 32 and 33, three adjacent columns (1-column spans) and
// the group's last column — in the first rows of the pairs (odd rows),
// their second rows (even rows), or both. The rows are those below the
// group start, or with capture the capture rows r0..r0+31, where the
// sweep also stores row y. The harness's group starts are odd and even,
// so the capture rows begin on either row of a pair; row r0+k is lane
// k's bottom row, read right of column k only.
func pairHits(capture, first, second bool) func(align.Params, []byte) *triangle.Triangle {
	return func(_ align.Params, s []byte) *triangle.Triangle {
		m := len(s)
		tri := triangle.New(m)
		for _, r0 := range groupStarts(m) {
			n := m - r0
			y0, y1 := 1, r0-1
			if capture {
				y0, y1 = r0, min(r0+31, m-1)
			}
			for y := y0; y <= y1; y++ {
				if y%2 == 1 && !first || y%2 == 0 && !second {
					continue
				}
				for _, c := range []int{1, 8, 15, 16, 17, 31, 32, 33, n / 2, n/2 + 1, n/2 + 2, n} {
					if c >= max(1, y-r0+1) && c <= n { // right of the diagonal
						tri.Set(y, r0+c)
					}
				}
			}
		}
		return tri
	}
}

// randomTriangle marks each pair with probability frac, and always the
// corner pair (1, m), the last column of every matrix's first row.
func randomTriangle(m int, frac float64, seed int64) *triangle.Triangle {
	tri := triangle.New(m)
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < m; i++ {
		for j := i + 1; j <= m; j++ {
			if rng.Float64() < frac {
				tri.Set(i, j)
			}
		}
	}
	tri.Set(1, m)
	return tri
}

// acceptedPath marks the pairs of the best alignment of the middle
// split, as accepting that top alignment would.
func acceptedPath(p align.Params, s []byte) *triangle.Triangle {
	m := len(s)
	tri := triangle.New(m)
	r := m / 2
	mat := align.NaiveMatrix(p, s[:r], s[r:], nil, r)
	endX, score, _ := align.BestValidEnd(mat[r][1:], nil)
	if score <= 0 {
		return tri
	}
	aln, err := align.Traceback(p, mat, s[:r], s[r:], nil, r, endX)
	if err != nil {
		panic(err)
	}
	for _, pr := range aln.Pairs {
		tri.Set(pr.Y, r+pr.X)
	}
	return tri
}

// groupStarts picks the group positions worth checking on a sequence of
// length m: every one when m is tiny, otherwise the left border (lanes
// that start in the border columns), the row-pairing threshold of the
// int16 kernel, the middle, last groups with dead lanes, and the final
// split alone.
func groupStarts(m int) []int {
	if m <= 17 {
		all := make([]int, 0, m-1)
		for r0 := 1; r0 <= m-1; r0++ {
			all = append(all, r0)
		}
		return all
	}
	return []int{1, 2, 9, m / 2, m - 17, m - 6, m - 1}
}

// TestScoreGroupAuto is the one kernel harness: forced tier x lanes x
// scoring model x input shape x override triangle, every bottom row
// compared with the bottom row of align.NaiveMatrix — the Equation-1
// oracle that shares no code with any tier (the scalar rung is
// align.ScoreMasked itself, so comparing against that would prove
// nothing). One Scratch serves a whole tier, so arena reuse across
// shrinking and growing groups is exercised too.
func TestScoreGroupAuto(t *testing.T) {
	prev := align.ActiveTier()
	defer align.SetKernelTier(prev.String()) //nolint:errcheck // prev was active, so it is supported
	scratch := map[Tier]*Scratch{TierScalar: NewScratch(), TierInt32x8: NewScratch(), TierInt16x16: NewScratch(), TierU8x32: NewScratch()}
	var byteGroups, byteReruns int
	for _, kp := range kernelParams {
		for _, in := range kernelInputs {
			s := in.gen(kp.p.Exch.Alphabet())
			m := len(s)
			for _, kt := range kernelTriangles {
				tri := kt.gen(kp.p, s)
				oracle := make(map[int][]int32) // split -> NaiveMatrix bottom row
				want := func(r int) []int32 {
					row, ok := oracle[r]
					if !ok {
						row = align.NaiveMatrix(kp.p, s[:r], s[r:], tri, r)[r][1:]
						oracle[r] = row
					}
					return row
				}
				for _, tier := range []Tier{TierScalar, TierInt32x8, TierInt16x16, TierU8x32} {
					if tier > align.DetectedTier() {
						continue
					}
					if err := SetKernelTier(tier.String()); err != nil {
						t.Fatal(err)
					}
					for _, lanes := range []int{4, 8, 16, 32} {
						for _, r0 := range groupStarts(m) {
							where := fmt.Sprintf("%s/%s/%s tier=%s lanes=%d r0=%d", kp.name, in.name, kt.name, tier, lanes, r0)
							g, err := scratch[tier].ScoreGroupAuto(kp.p, s, r0, lanes, tri)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							// the forced tier, narrowed by what the group shape
							// and the scoring model admit
							wantTier := tier
							if lanes < 32 || !align.ByteParamsOK(kp.p) {
								wantTier = min(wantTier, TierInt16x16)
							}
							if lanes < 16 || kp.name == "wide" {
								wantTier = min(wantTier, TierInt32x8)
							}
							if lanes < 8 {
								// split by split through align's row kernel:
								// the widest tier a member's shape admits
								wantTier = TierScalar
								for r := r0; r < r0+lanes && r <= m-1; r++ {
									wantTier = max(wantTier, align.RowTier(kp.p, r, m-r))
								}
							}
							if wantTier == TierU8x32 {
								byteGroups++
							}
							if wantTier == TierU8x32 && g.Rerun {
								byteReruns++
								// the byte pass flagged: the int16 rung
								// computed the group again
								wantTier = TierInt16x16
								if g.Wasted <= 0 {
									t.Fatalf("%s: byte re-run wasted %d cells", where, g.Wasted)
								}
							} else if g.Rerun || g.Wasted != 0 {
								t.Fatalf("%s: spurious saturation re-run (%d cells wasted)", where, g.Wasted)
							}
							if g.Tier != wantTier {
								t.Fatalf("%s: served by tier %s, want %s", where, g.Tier, wantTier)
							}
							if g.R0 != r0 || len(g.Bottoms) != lanes {
								t.Fatalf("%s: group R0=%d with %d rows", where, g.R0, len(g.Bottoms))
							}
							check := func(where string, bottoms [][]int32) {
								for k, got := range bottoms {
									r := r0 + k
									if r > m-1 {
										if got != nil {
											t.Fatalf("%s: lane %d beyond the last split is not nil", where, k)
										}
										continue
									}
									if !equalRows(got, want(r)) {
										t.Fatalf("%s lane %d (split %d): rows differ\n got %v\nwant %v", where, k, r, got, want(r))
									}
								}
							}
							check(where, g.Bottoms)
							if g.Tier == TierInt16x16 && lanes == 16 && Int16Proven(kp.p, m, r0, lanes) {
								// The harness's groups are too small to be
								// unproven; run each again on the
								// saturation-tracking kernels too.
								sc := scratch[tier]
								g := sc.newGroup(m, r0, lanes)
								if sc.avx16(kp.p, s, r0, tri, g.Bottoms, false) {
									t.Fatalf("%s unproven: spurious saturation flag", where)
								}
								check(where+" unproven", g.Bottoms)
							}
						}
					}
				}
			}
		}
	}
	if DetectedTier() < TierInt16x16 {
		t.Log("vector tiers unavailable on this CPU: only the scalar rung was checked")
	}
	if align.DetectedTier() >= TierU8x32 {
		t.Logf("%d byte groups, %d of them re-run on the int16 rung", byteGroups, byteReruns)
		if byteReruns*2 > byteGroups {
			t.Errorf("%d of %d byte groups re-run: the harness barely reaches the byte kernel's clean path", byteReruns, byteGroups)
		}
	}
}

// The wide model on the homopolymer must really leave the int16 range,
// or the harness would not show that the exact tiers stay exact there.
func TestWideScoresPassInt16Range(t *testing.T) {
	s := make([]byte, 64)
	r := len(s) / 2
	if peak := align.MaxRowScore(align.Score(wide, s[:r], s[r:])); peak <= 32767 {
		t.Fatalf("peak score %d fits int16; the wide model no longer tests exactness beyond it", peak)
	}
}

func TestScoreGroupErrors(t *testing.T) {
	s := seq.DNA.MustEncode("ACGTACGT")
	dna := align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	sc := NewScratch()
	if _, err := sc.ScoreGroupAuto(dna, s, 0, 4, nil); err == nil {
		t.Error("r0=0 accepted")
	}
	if _, err := sc.ScoreGroupAuto(dna, s, 8, 4, nil); err == nil {
		t.Error("r0=len(s) accepted")
	}
	for _, lanes := range []int{0, 1, 3, 5, 64} {
		if _, err := sc.ScoreGroupAuto(dna, s, 1, lanes, nil); err == nil {
			t.Errorf("lane count %d accepted", lanes)
		}
	}
	if _, err := sc.ScoreGroupAuto(align.Params{}, s, 1, 4, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestTriangleNextSetSegments walks rows the way the group drivers'
// mask pass does: hit by hit through one row's column range, never into another row.
func TestTriangleNextSetSegments(t *testing.T) {
	tri := triangle.New(40)
	tri.Set(3, 10)
	tri.Set(3, 30)
	tri.Set(5, 6)
	for _, c := range []struct {
		name        string
		i, from, to int
		want        int
	}{
		{"first set", 3, 4, 41, 10},
		{"after first", 3, 11, 41, 30},
		{"exclusive end", 3, 11, 30, -1},
		{"past last", 3, 31, 41, -1},
		{"row 3's pairs are not row 4's", 4, 5, 41, -1},
		{"third", 5, 6, 41, 6},
		// the group kernels' question: lane 2 of the group at r0 = 3 is row
		// 5, asked from column r0+1 = 4
		{"from left of the diagonal", 5, 4, 41, 6},
		{"from below zero", 3, -5, 11, 10},
		{"empty range", 3, 10, 10, -1},
	} {
		if got := tri.NextSet(c.i, c.from, c.to); got != c.want {
			t.Errorf("%s: NextSet(%d, %d, %d) = %d, want %d", c.name, c.i, c.from, c.to, got, c.want)
		}
	}
}

func equalRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
