package scoring

import (
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func TestEmbeddedMatricesAreSymmetric(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, PAM250, DNAUnit, PaperDNA} {
		if !m.IsSymmetric() {
			t.Errorf("matrix %s is not symmetric", m.Name())
		}
	}
}

func TestBLOSUM62KnownValues(t *testing.T) {
	code := func(c byte) byte { return byte(seq.Protein.Code(c)) }
	cases := []struct {
		a, b byte
		want int32
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'C', -2}, {'I', 'V', 3},
		{'L', 'I', 2}, {'D', 'E', 2}, {'P', 'F', -4},
		{'X', 'X', -1}, {'B', 'D', 4}, {'Z', 'E', 4},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(code(c.a), code(c.b)); got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPAM250KnownValues(t *testing.T) {
	code := func(c byte) byte { return byte(seq.Protein.Code(c)) }
	cases := []struct {
		a, b byte
		want int32
	}{
		{'W', 'W', 17}, {'C', 'C', 12}, {'A', 'A', 2},
		{'F', 'Y', 7}, {'I', 'V', 4}, {'W', 'C', -8},
	}
	for _, c := range cases {
		if got := PAM250.Score(code(c.a), code(c.b)); got != c.want {
			t.Errorf("PAM250(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDiagonalDominance(t *testing.T) {
	// A concrete residue must never score higher against a different
	// residue than against itself (required for the "identical repeats
	// score highest" intuition behind the top-alignment heuristics).
	// Ambiguity codes (X, N, B, Z) are excluded: X-X is -1 by convention.
	for _, m := range []*Matrix{BLOSUM62, PAM250, DNAUnit, PaperDNA} {
		n := m.Alphabet().Len()
		if m.Alphabet() == seq.Protein {
			n = 20
		} else if m.Alphabet() == seq.DNA {
			n = 4
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if m.Score(byte(i), byte(j)) > m.Score(byte(i), byte(i)) {
					t.Errorf("%s: score(%d,%d)=%d exceeds diagonal score(%d,%d)=%d",
						m.Name(), i, j, m.Score(byte(i), byte(j)), i, i, m.Score(byte(i), byte(i)))
				}
			}
		}
	}
}

func TestPaperDNAValues(t *testing.T) {
	a, c := byte(seq.DNA.Code('A')), byte(seq.DNA.Code('C'))
	if PaperDNA.Score(a, a) != 2 {
		t.Errorf("match = %d, want 2", PaperDNA.Score(a, a))
	}
	if PaperDNA.Score(a, c) != -1 {
		t.Errorf("mismatch = %d, want -1", PaperDNA.Score(a, c))
	}
}

func TestRowMatchesScore(t *testing.T) {
	f := func(a, b uint8) bool {
		n := seq.Protein.Len()
		x, y := byte(int(a)%n), byte(int(b)%n)
		return int32(BLOSUM62.Row(x)[y]) == BLOSUM62.Score(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix("bad", seq.DNA, [][]int16{{1}}); err == nil {
		t.Error("expected row-count error")
	}
	if _, err := NewMatrix("bad", seq.DNA, [][]int16{
		{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3}, {1, 2, 3, 4, 5},
	}); err == nil {
		t.Error("expected row-length error")
	}
}

func TestGapCost(t *testing.T) {
	g := PaperGap // open 2, ext 1
	if got := g.Cost(1); got != 3 {
		t.Errorf("Cost(1) = %d, want 3 (the paper's example charges 2+1 for a length-1 gap)", got)
	}
	if got := g.Cost(3); got != 5 {
		t.Errorf("Cost(3) = %d, want 5", got)
	}
	if got := g.Cost(0); got != 0 {
		t.Errorf("Cost(0) = %d, want 0", got)
	}
}

func TestGapValidate(t *testing.T) {
	if err := (Gap{Open: 2, Ext: 1}).Validate(); err != nil {
		t.Errorf("valid gap rejected: %v", err)
	}
	if err := (Gap{Open: -1, Ext: 1}).Validate(); err == nil {
		t.Error("negative open accepted")
	}
	if err := (Gap{Open: 1, Ext: 0}).Validate(); err == nil {
		t.Error("zero extension accepted")
	}
}

func TestMaxScore(t *testing.T) {
	if got := BLOSUM62.MaxScore(); got != 11 {
		t.Errorf("BLOSUM62 max = %d, want 11 (W-W)", got)
	}
	if got := PAM250.MaxScore(); got != 17 {
		t.Errorf("PAM250 max = %d, want 17 (W-W)", got)
	}
}

// MaxScore and MinScore are fixed when a matrix is built; they must
// equal a scan of its entries.
func TestExtremesMatchScan(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, PAM250, DNAUnit, PaperDNA, Unit("u", seq.Protein, 7, -3)} {
		n := m.Alphabet().Len()
		hi, lo := m.Score(0, 0), m.Score(0, 0)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				hi, lo = max(hi, m.Score(byte(a), byte(b))), min(lo, m.Score(byte(a), byte(b)))
			}
		}
		if m.MaxScore() != hi || m.MinScore() != lo {
			t.Errorf("%s: MaxScore, MinScore = %d, %d; a scan gives %d, %d", m.Name(), m.MaxScore(), m.MinScore(), hi, lo)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"BLOSUM62", "PAM250", "dna-unit", "paper-dna"} {
		m, ok := ByName(name)
		if !ok || m.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, m, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}
