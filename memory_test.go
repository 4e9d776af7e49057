package repro

import (
	"runtime"
	"testing"

	"repro/internal/seq"
)

// TestBalancedMemoryFollowsWhatItAccepts is the ceiling on engine memory:
// a balanced run over 250 k residues — a 150 x 200 tandem array between
// two 110 k flanks — may allocate 256 MB in total. A structure sized by
// the pair space cannot pass: the m(m-1)/2-bit override triangle alone
// was 3.9 GB at this length, a byte per window cell more. What the run
// does allocate is the O(m) row headers, the windows' original rows and
// the accepted paths (DESIGN.md section 5).
func TestBalancedMemoryFollowsWhatItAccepts(t *testing.T) {
	q := seq.Tandem(seq.TandemSpec{
		Alpha: seq.DNA, UnitLen: 150, Copies: 200, FlankLen: 110000,
		Profile: seq.MutationProfile{SubstRate: 0.10, IndelRate: 0.01, IndelExt: 0.5},
		Seed:    1,
	})
	residues := q.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Analyze("tandem-250k", residues, Options{Matrix: "dna-unit", Preset: "balanced"})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 256 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("a %d-residue balanced run allocated %d MB, ceiling %d MB", rep.SeqLen, got>>20, ceiling>>20)
	}
	if len(rep.Tops) == 0 || rep.Prefilter == nil || rep.Prefilter.Candidates == 0 {
		t.Errorf("the run found nothing to measure: %d tops, prefilter %+v", len(rep.Tops), rep.Prefilter)
	}
	t.Logf("n=%d tops=%d TotalAlloc +%d MB, Sys %d MB", rep.SeqLen, len(rep.Tops),
		(after.TotalAlloc-before.TotalAlloc)>>20, after.Sys>>20)
}
