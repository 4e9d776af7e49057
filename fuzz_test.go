package repro

import (
	"strings"
	"testing"
)

// FuzzAnalyzeDNA drives the whole pipeline with arbitrary byte strings:
// valid DNA must analyse without panicking and uphold the nonoverlap
// invariant; invalid input must error cleanly.
func FuzzAnalyzeDNA(f *testing.F) {
	f.Add("ATGCATGCATGC", uint8(3))
	f.Add("AACAACAACAAC", uint8(2))
	f.Add("A", uint8(1))
	f.Add("", uint8(5))
	f.Add("ACGTNNNNN", uint8(4))
	f.Add(strings.Repeat("GATTACA", 12), uint8(6))
	f.Fuzz(func(t *testing.T, s string, tops uint8) {
		if len(s) > 300 {
			s = s[:300]
		}
		rep, err := Analyze("fuzz", s, Options{
			Matrix:  "dna-unit",
			NumTops: 1 + int(tops%10),
		})
		if err != nil {
			return // invalid letters / too short: fine, as long as no panic
		}
		seen := map[Pair]bool{}
		for _, top := range rep.Tops {
			if top.Score <= 0 {
				t.Fatalf("non-positive top score %d", top.Score)
			}
			for _, p := range top.Pairs {
				if p.I < 1 || p.J <= p.I || p.J > rep.SeqLen {
					t.Fatalf("invalid pair %v for length %d", p, rep.SeqLen)
				}
				if seen[p] {
					t.Fatalf("pair %v reused across top alignments", p)
				}
				seen[p] = true
			}
		}
	})
}

// FuzzFASTA exercises the FASTA parser with arbitrary input; it must
// either error or produce sequences that re-encode cleanly.
func FuzzFASTA(f *testing.F) {
	f.Add(">a\nACGT\n")
	f.Add(">a desc here\nACGT\n>b\nTTTT\n")
	f.Add("")
	f.Add(">\nACGT")
	f.Add("no header\n")
	f.Add(">x\nAC GT*\n\n>y\n\n")
	f.Fuzz(func(t *testing.T, in string) {
		reports, err := AnalyzeFASTA(strings.NewReader(in), Options{
			Matrix: "dna-unit", NumTops: 2,
		})
		if err != nil {
			return
		}
		for _, rep := range reports {
			if rep.SeqID == "" {
				t.Fatal("record with empty id accepted")
			}
			if rep.SeqLen != len(rep.Residues) {
				t.Fatalf("SeqLen %d != len(Residues) %d", rep.SeqLen, len(rep.Residues))
			}
		}
	})
}
