package topalign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
)

var (
	dnaParams     = align.Params{Exch: scoring.PaperDNA, Gap: scoring.PaperGap}
	proteinParams = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
)

// TestFigure4 reproduces the three nonoverlapping top alignments of
// Figure 4: for ATGCATGCATGC the first two (equivalent) top alignments
// match the prefix ATGC against the two ATGC occurrences of the suffix,
// and the third matches ATGC(5-8) against ATGC(9-12).
func TestFigure4(t *testing.T) {
	s := seq.PaperATGC()
	res, err := Find(s.Codes, Config{Params: dnaParams, NumTops: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 3 {
		t.Fatalf("got %d tops, want 3", len(res.Tops))
	}
	want := [][]Pair{
		{{1, 5}, {2, 6}, {3, 7}, {4, 8}},
		{{1, 9}, {2, 10}, {3, 11}, {4, 12}},
		{{5, 9}, {6, 10}, {7, 11}, {8, 12}},
	}
	for i, top := range res.Tops {
		if top.Score != 8 {
			t.Errorf("top %d score = %d, want 8 (four +2 matches)", i+1, top.Score)
		}
		if top.Index != i+1 {
			t.Errorf("top %d index = %d", i+1, top.Index)
		}
		if !pairsEqual(top.Pairs, want[i]) {
			t.Errorf("top %d pairs = %v, want %v", i+1, top.Pairs, want[i])
		}
	}
	// Figure 4's discussion: alignments 1 and 3 are separate top
	// alignments; all three must be mutually nonoverlapping.
	for i := range res.Tops {
		for j := i + 1; j < len(res.Tops); j++ {
			if res.Tops[i].Overlaps(res.Tops[j]) {
				t.Errorf("tops %d and %d overlap", i+1, j+1)
			}
		}
	}
}

func TestNonoverlapInvariant(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		q := seq.SyntheticTitin(200, seed)
		res, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 12})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tops) < 2 {
			t.Fatalf("seed %d: only %d tops found", seed, len(res.Tops))
		}
		seen := map[Pair]int{}
		for _, top := range res.Tops {
			for _, p := range top.Pairs {
				if p.I < 1 || p.J <= p.I || p.J > 200 {
					t.Fatalf("invalid pair %v", p)
				}
				if prev, dup := seen[p]; dup {
					t.Fatalf("pair %v in tops %d and %d", p, prev, top.Index)
				}
				seen[p] = top.Index
			}
		}
	}
}

// Top alignment scores must be non-increasing in acceptance order: each
// new top is the best alignment not overlapping its predecessors.
func TestScoresNonIncreasing(t *testing.T) {
	q := seq.SyntheticTitin(250, 7)
	res, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Tops); i++ {
		if res.Tops[i].Score > res.Tops[i-1].Score {
			t.Errorf("top %d score %d exceeds top %d score %d",
				i+1, res.Tops[i].Score, i, res.Tops[i-1].Score)
		}
	}
}

// The first top alignment must be the globally best split alignment:
// brute-force over all splits with the plain kernel.
func TestFirstTopIsGlobalBest(t *testing.T) {
	for seed := uint64(1); seed < 5; seed++ {
		q := seq.Tandem(seq.TandemSpec{
			Alpha: seq.Protein, UnitLen: 30, Copies: 4, FlankLen: 10,
			Profile: seq.DefaultDivergence, Seed: seed,
		})
		s := q.Codes
		var best int32
		for r := 1; r < len(s); r++ {
			if sc := align.MaxRowScore(align.Score(proteinParams, s[:r], s[r:])); sc > best {
				best = sc
			}
		}
		res, err := Find(s, Config{Params: proteinParams, NumTops: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tops) != 1 || res.Tops[0].Score != best {
			t.Errorf("seed %d: first top score = %d, want %d", seed, res.Tops[0].Score, best)
		}
	}
}

// Group-scheduling mode (the SIMD-style static scheme) must produce
// exactly the same top alignments as scalar mode.
func TestGroupModeEquivalence(t *testing.T) {
	for _, lanes := range []int{4, 8} {
		for seed := uint64(0); seed < 3; seed++ {
			q := seq.SyntheticTitin(150, seed)
			want, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 10, GroupLanes: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 10, GroupLanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTops(t, got.Tops, want.Tops)
		}
	}
}

// Stale scores are upper bounds: whenever a task is realigned, its new
// score must not exceed the score it was queued with. OnRealign reports
// every realignment with its new score, so we check each split's
// sequence of scores.
func TestStaleScoreIsUpperBound(t *testing.T) {
	q := seq.SyntheticTitin(160, 11)
	bound := map[int]int32{} // split -> score it is queued with
	realigned := 0
	cfg := Config{Params: proteinParams, NumTops: 10, GroupLanes: 1} // one task per split
	cfg.OnRealign = func(tk *Task, tops int) {
		if before, ok := bound[tk.R]; ok {
			realigned++
			if tk.Score > before {
				t.Errorf("split %d: realigned score %d exceeds stale bound %d", tk.R, tk.Score, before)
			}
			if tk.AlignedWith != tops {
				t.Errorf("split %d: realignment against %d tops stamped %d", tk.R, tops, tk.AlignedWith)
			}
		}
		bound[tk.R] = tk.Score
	}
	res, err := Find(q.Codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 10 {
		t.Fatalf("found %d tops, want 10", len(res.Tops))
	}
	if len(bound) != len(q.Codes)-1 {
		t.Fatalf("OnRealign saw %d splits, want %d", len(bound), len(q.Codes)-1)
	}
	if realigned == 0 {
		t.Fatal("no split was realigned: the property was not exercised")
	}
}

// The paper: the ordering heuristic "typically reduces the number of
// realignments by 90-97%". On repeat-rich input the reduction must be
// substantial; we check > 50% to stay robust across seeds while still
// catching a broken heuristic (which would realign everything).
func TestRealignmentReduction(t *testing.T) {
	c := &stats.Counters{}
	q := seq.SyntheticTitin(300, 2)
	res, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 20, GroupLanes: 1, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 20 {
		t.Fatalf("found %d tops", len(res.Tops))
	}
	red := res.Stats.RealignmentReduction(len(q.Codes)-1, len(res.Tops))
	if red < 0.5 {
		t.Errorf("realignment reduction = %.1f%%, expected > 50%%", 100*red)
	}
	t.Logf("realignment reduction: %.1f%% (paper reports 90-97%%)", 100*red)
}

// Section 5.1: the group-of-4 static speculation "hardly computes more
// alignments than the sequential version (less than 0.70%)" on titin.
// At our scaled lengths neighbouring splits are slightly less correlated
// than at n=34350, so we assert a looser 15% band and report the value.
func TestSpeculationOverheadGroupMode(t *testing.T) {
	q := seq.SyntheticTitin(400, 3)
	scalarC, groupC := &stats.Counters{}, &stats.Counters{}
	if _, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 15, GroupLanes: 1, Counters: scalarC}); err != nil {
		t.Fatal(err)
	}
	if _, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 15, GroupLanes: 4, Counters: groupC}); err != nil {
		t.Fatal(err)
	}
	s, g := scalarC.Snapshot().Alignments, groupC.Snapshot().Alignments
	overhead := float64(g-s) / float64(s)
	if overhead > 0.15 {
		t.Errorf("group-mode speculation overhead %.2f%% (scalar %d, group %d alignments)",
			100*overhead, s, g)
	}
	t.Logf("group-mode speculation overhead: %.2f%% (paper: <0.70%% at n=34350)", 100*overhead)
}

func TestMinScoreStopsEarly(t *testing.T) {
	// A random sequence has only weak internal repeats; a high MinScore
	// must stop the search before NumTops alignments are found.
	q := seq.Random(seq.Protein, 120, 5)
	res, err := Find(q.Codes, Config{Params: proteinParams, NumTops: 50, MinScore: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) != 0 {
		t.Errorf("got %d tops despite impossible MinScore", len(res.Tops))
	}
}

func TestFindMoreTopsThanExist(t *testing.T) {
	// Tiny sequence: the queue dries up before NumTops are found, and
	// Find must return what it has without error.
	s := seq.DNA.MustEncode("ATAT")
	res, err := Find(s, Config{Params: dnaParams, NumTops: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tops) == 0 || len(res.Tops) >= 30 {
		t.Errorf("got %d tops", len(res.Tops))
	}
}

func TestConfigValidation(t *testing.T) {
	s := seq.DNA.MustEncode("ACGTACGT")
	if _, err := Find(s, Config{Params: dnaParams}); err == nil {
		t.Error("NumTops 0 accepted")
	}
	if _, err := Find(s, Config{Params: dnaParams, NumTops: 1, GroupLanes: 3}); err == nil {
		t.Error("GroupLanes 3 accepted")
	}
	if _, err := Find(s[:1], Config{Params: dnaParams, NumTops: 1}); err == nil {
		t.Error("length-1 sequence accepted")
	}
	if _, err := Find(s, Config{NumTops: 1}); err == nil {
		t.Error("missing params accepted")
	}
}

func TestOverlapsHelper(t *testing.T) {
	a := TopAlignment{Pairs: []Pair{{1, 5}, {2, 6}}}
	b := TopAlignment{Pairs: []Pair{{2, 6}, {3, 7}}}
	c := TopAlignment{Pairs: []Pair{{3, 7}, {4, 8}}}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlapping alignments not detected")
	}
	if a.Overlaps(c) {
		t.Error("disjoint alignments reported overlapping")
	}
}

func assertSameTops(t *testing.T, got, want []TopAlignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("top %d score = %d, want %d", i+1, got[i].Score, want[i].Score)
		}
		if got[i].Split != want[i].Split {
			t.Fatalf("top %d split = %d, want %d", i+1, got[i].Split, want[i].Split)
		}
		if !pairsEqual(got[i].Pairs, want[i].Pairs) {
			t.Fatalf("top %d pairs = %v, want %v", i+1, got[i].Pairs, want[i].Pairs)
		}
	}
}

func pairsEqual(a, b []Pair) bool {
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
