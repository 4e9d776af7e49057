package seedindex

import (
	"runtime"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
)

// frontEndInputs are the ledger's two prefilter workloads at full scale.
var frontEndInputs = []struct {
	name   string
	matrix *scoring.Matrix
	s      func() []byte
}{
	{"protein60k", scoring.BLOSUM62, func() []byte { return seq.SyntheticTitin(60000, 1).Codes }},
	{"dna33k", scoring.DNAUnit, func() []byte {
		return seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 150, Copies: 200, FlankLen: 3000,
			Profile: seq.MutationProfile{SubstRate: 0.10, IndelRate: 0.01, IndelExt: 0.5}, Seed: 2}).Codes
	}},
}

// BenchmarkFrontEnd times the three stages that decide where to align,
// each on the output of the one before, under the balanced preset. Chain
// runs on the cores the process has; ChainOneCore pins GOMAXPROCS to 1,
// so one run at -cpu 2 reads the split's gain as the ratio of the two.
func BenchmarkFrontEnd(b *testing.B) {
	for _, in := range frontEndInputs {
		s := in.s()
		cfg, err := PresetConfig(PresetBalanced, seq.PrimaryLetters(in.matrix.Alphabet()))
		if err != nil {
			b.Fatal(err)
		}
		x, err := BuildIndex(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ch := Chain(x, cfg)
		b.Run(in.name+"/BuildIndex", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildIndex(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/Chain", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch = Chain(x, cfg)
			}
		})
		b.Run(in.name+"/ChainOneCore", func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch = Chain(x, cfg)
			}
		})
		b.Run(in.name+"/Candidates", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(Candidates(ch, cfg, len(s), in.matrix.MaxScore())) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// TestFrontEndAllocations pins that the front end allocates per stage,
// not per seed: index, chain and candidates of the 2 500-residue input —
// some two thousand distinct k-mers, once a growing slice each — make a
// handful of allocations between them.
func TestFrontEndAllocations(t *testing.T) {
	s := seq.SyntheticTitin(2500, 1).Codes
	cfg, err := PresetConfig(PresetBalanced, seq.PrimaryLetters(scoring.BLOSUM62.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	kmers := 0
	allocs := testing.AllocsPerRun(10, func() {
		x, err := BuildIndex(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		kmers = x.Kmers()
		if len(Candidates(Chain(x, cfg), cfg, len(s), scoring.BLOSUM62.MaxScore())) == 0 {
			t.Fatal("no candidates")
		}
	})
	if kmers < 1000 {
		t.Fatalf("only %d distinct k-mers: the input no longer exercises the index", kmers)
	}
	if allocs > 16 {
		t.Errorf("%.0f allocations for %d k-mers, want at most 16", allocs, kmers)
	}
	t.Logf("%.0f allocations, %d k-mers", allocs, kmers)
}
