package topalign

import (
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

// Property: on random repeat-bearing sequences the core invariants hold:
// nonoverlapping pairs, non-increasing scores, positive scores, pairs
// strictly increasing along each path, and the first top equal to the
// best split score.
func TestFindInvariantsProperty(t *testing.T) {
	f := func(seed uint64, lenPick, topsPick uint8) bool {
		n := 60 + int(lenPick)%120
		tops := 2 + int(topsPick)%6
		s := seq.SyntheticTitin(n, seed).Codes
		res, err := Find(s, Config{Params: proteinParams, NumTops: tops})
		if err != nil {
			return false
		}
		seen := map[Pair]bool{}
		prevScore := int32(1 << 30)
		for _, top := range res.Tops {
			if top.Score <= 0 || top.Score > prevScore {
				return false
			}
			prevScore = top.Score
			if top.Split < 1 || top.Split > n-1 {
				return false
			}
			for i, p := range top.Pairs {
				if p.I < 1 || p.J <= p.I || p.J > n {
					return false
				}
				if p.I > top.Split || p.J <= top.Split {
					return false // pairs must respect the split
				}
				if i > 0 && (p.I <= top.Pairs[i-1].I || p.J <= top.Pairs[i-1].J) {
					return false
				}
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: group-scheduling mode is equivalent to scalar mode on random
// inputs (fuzz version of the fixed-seed equivalence test).
func TestGroupEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, lanePick bool) bool {
		lanes := 4
		if lanePick {
			lanes = 8
		}
		n := 70 + int(seed%80)
		s := seq.SyntheticTitin(n, seed).Codes
		a, err := Find(s, Config{Params: proteinParams, NumTops: 5})
		if err != nil {
			return false
		}
		b, err := Find(s, Config{Params: proteinParams, NumTops: 5, GroupLanes: lanes})
		if err != nil {
			return false
		}
		if len(a.Tops) != len(b.Tops) {
			return false
		}
		for i := range a.Tops {
			if a.Tops[i].Score != b.Tops[i].Score || a.Tops[i].Split != b.Tops[i].Split {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: results are a deterministic function of the input — two runs
// agree pair for pair.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := seq.SyntheticTitin(100, seed).Codes
		a, err := Find(s, Config{Params: proteinParams, NumTops: 6})
		if err != nil {
			return false
		}
		b, err := Find(s, Config{Params: proteinParams, NumTops: 6})
		if err != nil {
			return false
		}
		for i := range a.Tops {
			if len(a.Tops[i].Pairs) != len(b.Tops[i].Pairs) {
				return false
			}
			for j := range a.Tops[i].Pairs {
				if a.Tops[i].Pairs[j] != b.Tops[i].Pairs[j] {
					return false
				}
			}
		}
		return len(a.Tops) == len(b.Tops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Engine misuse must error, not panic.
func TestEngineAcceptErrors(t *testing.T) {
	e, err := NewEngine(seq.PaperATGC().Codes, Config{Params: dnaParams, NumTops: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	if _, err := e.Accept(&Task{R: 4, AlignedWith: -1}, sc); err == nil {
		t.Error("accepting a never-aligned split did not error")
	}
	// align a hopeless split, then try to accept it with no valid ending
	hopeless, err := NewEngine(seq.DNA.MustEncode("ACGT"), Config{Params: dnaParams, NumTops: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{R: 1, Score: Infinity, AlignedWith: -1}
	if _, err := hopeless.Realign(task, hopeless.Triangle(), 0, sc); err != nil {
		t.Fatal(err)
	}
	if task.Score != 0 {
		t.Fatalf("split 1 of ACGT scored %d, want 0", task.Score)
	}
	if _, err := hopeless.Accept(task, sc); err == nil {
		t.Error("accepting a zero-score split did not error")
	}
	// a group the kernel refuses is reported, not retried split by split
	grouped, err := NewEngine(seq.PaperATGC().Codes, Config{Params: dnaParams, NumTops: 1, GroupLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grouped.Realign(&Task{R: grouped.Len(), Score: Infinity, AlignedWith: -1}, nil, 0, sc); err == nil {
		t.Error("realigning a group past the last split did not error")
	}
}

func TestEngineAccessors(t *testing.T) {
	s := seq.PaperATGC().Codes
	e, err := NewEngine(s, Config{Params: dnaParams, NumTops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 12 || e.NumSplits() != 11 {
		t.Errorf("Len/NumSplits = %d/%d", e.Len(), e.NumSplits())
	}
	if e.NumTopsFound() != 0 || len(e.Tops()) != 0 {
		t.Error("fresh engine has tops")
	}
	snap := e.TriangleSnapshot()
	if snap.Count() != 0 || snap == e.Triangle() {
		t.Error("snapshot not an independent empty clone")
	}
	if e.Config().MinScore != 1 {
		t.Errorf("default MinScore = %d", e.Config().MinScore)
	}
	if _, ok := e.OrigRows().Get(1); ok {
		t.Error("fresh engine has stored rows")
	}
}
