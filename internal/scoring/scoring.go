// Package scoring provides residue exchange (substitution) matrices and
// the affine gap model used by the alignment kernels.
//
// The gap model follows the paper: a gap of length k costs
// Open + k*Ext, charged when the gap is introduced between two matched
// residue pairs.
package scoring

import (
	"fmt"

	"repro/internal/seq"
)

// Matrix is an exchange matrix over an alphabet. Scores are stored as
// int16 (every standard matrix fits comfortably); alignment kernels widen
// to int32 where needed.
type Matrix struct {
	name   string
	alpha  *seq.Alphabet
	n      int
	scores []int16 // n*n, row-major

	maxScore, minScore int32 // extremes of scores, fixed at construction
}

// NewMatrix builds a matrix from a full n×n score table in alphabet code
// order. The table must be square and match the alphabet size.
func NewMatrix(name string, alpha *seq.Alphabet, table [][]int16) (*Matrix, error) {
	n := alpha.Len()
	if len(table) != n {
		return nil, fmt.Errorf("scoring: matrix %q has %d rows, alphabet %s has %d letters",
			name, len(table), alpha.Name(), n)
	}
	m := &Matrix{name: name, alpha: alpha, n: n, scores: make([]int16, n*n)}
	for i, row := range table {
		if len(row) != n {
			return nil, fmt.Errorf("scoring: matrix %q row %d has %d entries, want %d", name, i, len(row), n)
		}
		copy(m.scores[i*n:(i+1)*n], row)
	}
	m.setExtremes()
	return m, nil
}

// Unit builds the simple match/mismatch matrix the paper uses in its
// examples (e.g. match +2, mismatch -1 in Figure 2).
func Unit(name string, alpha *seq.Alphabet, match, mismatch int16) *Matrix {
	n := alpha.Len()
	m := &Matrix{name: name, alpha: alpha, n: n, scores: make([]int16, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.scores[i*n+j] = match
			} else {
				m.scores[i*n+j] = mismatch
			}
		}
	}
	m.setExtremes()
	return m
}

// setExtremes records the largest and smallest entries, which the kernel
// tier checks ask for on every group.
func (m *Matrix) setExtremes() {
	m.maxScore, m.minScore = int32(m.scores[0]), int32(m.scores[0])
	for _, s := range m.scores {
		m.maxScore = max(m.maxScore, int32(s))
		m.minScore = min(m.minScore, int32(s))
	}
}

// Name returns the matrix name.
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the alphabet the matrix is defined over.
func (m *Matrix) Alphabet() *seq.Alphabet { return m.alpha }

// Score returns the exchange value for residue codes a and b.
func (m *Matrix) Score(a, b byte) int32 {
	return int32(m.scores[int(a)*m.n+int(b)])
}

// Row returns the score row for residue code a: Row(a)[b] == Score(a, b).
// The caller must not modify the returned slice. This is the hot lookup
// used by the kernels — one Row call per matrix row amortises the lookup
// across all columns.
func (m *Matrix) Row(a byte) []int16 {
	return m.scores[int(a)*m.n : int(a+1)*m.n : int(a+1)*m.n]
}

// IsSymmetric reports whether Score(a,b) == Score(b,a) for all pairs.
func (m *Matrix) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.scores[i*m.n+j] != m.scores[j*m.n+i] {
				return false
			}
		}
	}
	return true
}

// MaxScore returns the largest entry in the matrix (the best achievable
// per-residue score, used for score-bound reasoning).
func (m *Matrix) MaxScore() int32 { return m.maxScore }

// MinScore returns the smallest entry in the matrix.
func (m *Matrix) MinScore() int32 { return m.minScore }

// Gap is the affine gap model: a gap of length k >= 1 costs Open + k*Ext.
type Gap struct {
	Open int32
	Ext  int32
}

// Validate rejects non-positive penalties, which would make local
// alignment scores unbounded or gaps free.
func (g Gap) Validate() error {
	if g.Open < 0 {
		return fmt.Errorf("scoring: negative gap open penalty %d", g.Open)
	}
	if g.Ext <= 0 {
		return fmt.Errorf("scoring: gap extension penalty %d must be positive", g.Ext)
	}
	return nil
}

// Cost returns the penalty for a gap of length k.
func (g Gap) Cost(k int) int32 {
	if k <= 0 {
		return 0
	}
	return g.Open + int32(k)*g.Ext
}

// PaperGap is the gap model of the paper's running example: 2 points per
// gap opening plus 1 point per gapped position.
var PaperGap = Gap{Open: 2, Ext: 1}

// DefaultProteinGap is a conventional choice for BLOSUM62 under this
// cost model (open 10, extend 1 per residue).
var DefaultProteinGap = Gap{Open: 10, Ext: 1}

// PaperDNA is the match +2 / mismatch -1 matrix of the paper's examples.
var PaperDNA = Unit("paper-dna", seq.DNA, 2, -1)
