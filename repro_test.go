package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/topalign"
)

func TestAnalyzePaperExample(t *testing.T) {
	rep, err := Analyze("fig4", "ATGCATGCATGC", Options{Matrix: "paper-dna", NumTops: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tops) != 3 {
		t.Fatalf("got %d tops, want 3", len(rep.Tops))
	}
	for _, top := range rep.Tops {
		if top.Score != 8 {
			t.Errorf("top %d score %d, want 8", top.Index, top.Score)
		}
	}
	if len(rep.Families) != 1 || len(rep.Families[0].Copies) != 3 {
		t.Errorf("families = %+v", rep.Families)
	}
}

func TestAnalyzeEnginesAgree(t *testing.T) {
	s := seq.SyntheticTitin(140, 2).String()
	base, err := Analyze("x", s, Options{NumTops: 6})
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"workers": {NumTops: 6, Workers: 4},
		"cluster": {NumTops: 6, Slaves: 2, ThreadsPerSlave: 2},
		"lanes":   {NumTops: 6, Lanes: 4},
	} {
		got, err := Analyze("x", s, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Tops) != len(base.Tops) {
			t.Fatalf("%s: %d tops vs %d", name, len(got.Tops), len(base.Tops))
		}
		for i := range base.Tops {
			if got.Tops[i].Score != base.Tops[i].Score || got.Tops[i].Split != base.Tops[i].Split {
				t.Errorf("%s: top %d differs", name, i+1)
			}
		}
	}
}

func TestAnalyzeDefaults(t *testing.T) {
	rep, err := Analyze("t", seq.SyntheticTitin(150, 1).String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tops) == 0 || len(rep.Tops) > DefaultNumTops {
		t.Errorf("got %d tops with default options", len(rep.Tops))
	}
	if rep.Stats.Alignments == 0 || rep.Stats.Cells == 0 {
		t.Error("stats not collected")
	}
	if rep.Stats.RealignmentReduction <= 0 {
		t.Error("realignment reduction not computed")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze("x", "ACGT", Options{Matrix: "nope"}); err == nil {
		t.Error("unknown matrix accepted")
	}
	if _, err := Analyze("x", "AC1GT", Options{Matrix: "dna-unit"}); err == nil {
		t.Error("bad residue accepted")
	}
	if _, err := Analyze("x", "A", Options{}); err == nil {
		t.Error("length-1 sequence accepted")
	}
}

func TestAnalyzeFASTA(t *testing.T) {
	in := ">a first\nATGCATGCATGC\n>b second\nTTAGGTTAGGTTAGG\n"
	reps, err := AnalyzeFASTA(strings.NewReader(in), Options{Matrix: "paper-dna", NumTops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports", len(reps))
	}
	if reps[0].SeqID != "a" || reps[1].SeqID != "b" {
		t.Error("record ids lost")
	}
	if len(reps[1].Tops) == 0 {
		t.Error("no tops for repetitive record b")
	}
}

func TestWriteReport(t *testing.T) {
	rep, err := Analyze("fig4", "ATGCATGCATGC", Options{Matrix: "paper-dna", NumTops: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig4", "top  1", "family 1", "copy [1-4]"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeCustomGaps(t *testing.T) {
	// extreme gap penalties must flow through: with huge penalties the
	// gapped alignments vanish but ungapped repeats survive
	rep, err := Analyze("x", "ATGCATGCATGC", Options{Matrix: "paper-dna", NumTops: 1, GapOpen: 100, GapExt: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tops) != 1 || rep.Tops[0].Score != 8 {
		t.Errorf("tops = %+v", rep.Tops)
	}
}

// cmd/repromaster builds its cluster.Config by hand; it must resolve the
// gap model through the same scoring.DefaultGap table Analyze uses, or
// -matrix paper-dna would align DNA with the protein gap. A strict
// master-style run of a gapped DNA tandem array must equal Analyze, and
// the input must be one the protein gap answers differently.
func TestMasterStyleConfigMatchesAnalyze(t *testing.T) {
	q := seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 23, Copies: 9, FlankLen: 10, Seed: 5,
		Profile: seq.MutationProfile{SubstRate: 0.08, IndelRate: 0.08, IndelExt: 0.3}})
	want, err := Analyze(q.ID, q.String(), Options{Matrix: "paper-dna", NumTops: 6})
	if err != nil {
		t.Fatal(err)
	}
	exch, _ := scoring.ByName("paper-dna")
	run := func(gap scoring.Gap) []topalign.TopAlignment {
		res, err := cluster.RunLocal(q.Codes,
			cluster.Config{Top: topalign.Config{Params: align.Params{Exch: exch, Gap: gap}, NumTops: 6}},
			cluster.LocalSpec{Slaves: 2, ThreadsPerSlave: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tops
	}
	same := func(tops []topalign.TopAlignment) bool {
		if len(tops) != len(want.Tops) {
			return false
		}
		for i, top := range tops {
			if top.Split != want.Tops[i].Split || int(top.Score) != want.Tops[i].Score {
				return false
			}
		}
		return true
	}
	if !same(run(scoring.DefaultGap(exch))) {
		t.Error("master-style paper-dna run differs from Analyze")
	}
	if same(run(scoring.DefaultProteinGap)) {
		t.Error("input does not tell the DNA gap from the protein gap: the test proves nothing")
	}
}
