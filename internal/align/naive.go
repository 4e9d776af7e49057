package align

import "repro/internal/triangle"

// ScoreNaive computes the same bottom row as Score/ScoreMasked using
// Equation 1 of the paper verbatim: for every cell the gap candidates are
// found by explicit scans over the row above and the column to the left,
// without the MaxX/MaxY running maxima of Figure 3. Each cell therefore
// costs O(n), making a whole matrix O(n^3).
//
// This is the per-cell model of the pre-Gotoh old algorithm (the paper's
// O(n^4) baseline) and the oracle the optimised kernels are tested
// against. tri may be nil.
func ScoreNaive(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) []int32 {
	len1, len2 := len(s1), len(s2)
	bottom := make([]int32, len2)
	if len1 == 0 || len2 == 0 {
		return bottom
	}
	m := NaiveMatrix(p, s1, s2, tri, r)
	copy(bottom, m[len1][1:])
	return bottom
}

// NaiveMatrix computes and returns the full (len1+1)×(len2+1) alignment
// matrix using the Equation-1 recurrence with explicit gap scans.
// Row/column 0 are the zero boundary. tri may be nil.
func NaiveMatrix(p Params, s1, s2 []byte, tri *triangle.Triangle, r int) [][]int32 {
	len1, len2 := len(s1), len(s2)
	m := make([][]int32, len1+1)
	for y := range m {
		m[y] = make([]int32, len2+1)
	}
	open, ext := p.Gap.Open, p.Gap.Ext
	for y := 1; y <= len1; y++ {
		row := p.Exch.Row(s1[y-1])
		for x := 1; x <= len2; x++ {
			if tri != nil && tri.Get(y, r+x) {
				m[y][x] = 0
				continue
			}
			best := m[y-1][x-1]
			// gap in the vertical sequence: predecessor in the row above,
			// k columns further left (a horizontal gap of length k)
			for k := 1; x-1-k >= 0; k++ {
				if c := m[y-1][x-1-k] - open - int32(k)*ext; c > best {
					best = c
				}
			}
			// gap in the horizontal sequence: predecessor in the column to
			// the left, k rows further up (a vertical gap of length k)
			for k := 1; y-1-k >= 0; k++ {
				if c := m[y-1-k][x-1] - open - int32(k)*ext; c > best {
					best = c
				}
			}
			v := best + int32(row[s2[x-1]])
			if v < 0 {
				v = 0
			}
			m[y][x] = v
		}
	}
	return m
}
