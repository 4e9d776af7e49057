package oldalgo

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

var (
	dnaParams     = align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	proteinParams = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
)

// Both baseline kernels must produce exactly the same top alignments as
// the new algorithm — the paper's speedups compare equal-output runs.
func TestOldMatchesNew(t *testing.T) {
	cases := []struct {
		name string
		s    []byte
		tops int
	}{
		{"figure4", seq.PaperATGC().Codes, 3},
		{"titin-like", seq.SyntheticTitin(90, 1).Codes, 5},
		{"tandem", seq.Tandem(seq.TandemSpec{
			Alpha: seq.Protein, UnitLen: 20, Copies: 3, FlankLen: 5,
			Profile: seq.DefaultDivergence, Seed: 3}).Codes, 4},
	}
	for _, c := range cases {
		params := proteinParams
		if c.name == "figure4" {
			params = dnaParams
		}
		want, err := topalign.Find(c.s, topalign.Config{Params: params, NumTops: c.tops})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kernel{KernelNaive, KernelGotoh} {
			got, err := Find(c.s, Config{Params: params, NumTops: c.tops, Kernel: k})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, k, err)
			}
			if len(got.Tops) != len(want.Tops) {
				t.Fatalf("%s/%s: got %d tops, want %d", c.name, k, len(got.Tops), len(want.Tops))
			}
			for i := range want.Tops {
				if got.Tops[i].Score != want.Tops[i].Score ||
					got.Tops[i].Split != want.Tops[i].Split ||
					len(got.Tops[i].Pairs) != len(want.Tops[i].Pairs) {
					t.Fatalf("%s/%s: top %d = %+v, want %+v", c.name, k, i+1, got.Tops[i], want.Tops[i])
				}
				for j := range want.Tops[i].Pairs {
					if got.Tops[i].Pairs[j] != want.Tops[i].Pairs[j] {
						t.Fatalf("%s/%s: top %d pair %d differs", c.name, k, i+1, j)
					}
				}
			}
		}
	}
}

// The old algorithm must do far more alignment work than the new one for
// the same output — that gap is Table 1's speedup.
func TestOldDoesMoreWork(t *testing.T) {
	s := seq.SyntheticTitin(120, 2).Codes
	oldC, newC := &stats.Counters{}, &stats.Counters{}
	if _, err := Find(s, Config{Params: proteinParams, NumTops: 8, Kernel: KernelGotoh, Counters: oldC}); err != nil {
		t.Fatal(err)
	}
	if _, err := topalign.Find(s, topalign.Config{Params: proteinParams, NumTops: 8, GroupLanes: 1, Counters: newC}); err != nil {
		t.Fatal(err)
	}
	oldCells := oldC.Snapshot().Cells
	newCells := newC.Snapshot().Cells
	if oldCells < 3*newCells {
		t.Errorf("old computed %d cells, new %d: expected at least 3x more work", oldCells, newCells)
	}
	t.Logf("cells: old %d, new %d (ratio %.1fx)", oldCells, newCells, float64(oldCells)/float64(newCells))
}

func TestKernelString(t *testing.T) {
	if KernelNaive.String() != "naive" || KernelGotoh.String() != "gotoh" {
		t.Error("kernel names wrong")
	}
	if Kernel(9).String() != "Kernel(9)" {
		t.Error("unknown kernel name wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	s := seq.DNA.MustEncode("ACGTACGT")
	if _, err := Find(s, Config{Params: dnaParams}); err == nil {
		t.Error("NumTops 0 accepted")
	}
	if _, err := Find(s[:1], Config{Params: dnaParams, NumTops: 1}); err == nil {
		t.Error("length-1 sequence accepted")
	}
	if _, err := Find(s, Config{NumTops: 1}); err == nil {
		t.Error("missing params accepted")
	}
}

func TestMinScoreStopsEarly(t *testing.T) {
	s := seq.Random(seq.Protein, 60, 9).Codes
	res, err := Find(s, Config{Params: proteinParams, NumTops: 10, MinScore: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 0 {
		t.Errorf("got %d tops despite impossible MinScore", len(res.Tops))
	}
}
