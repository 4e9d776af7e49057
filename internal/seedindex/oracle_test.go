package seedindex

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// The oracle is the front end this package ran before the flat index: a
// map of posting lists, pairs put in (d, i) order by a comparison sort,
// segments merged diagonal by diagonal and put in (band, Start, D) order
// by another, candidates sorted through sort.Slice. Every stage of the
// real one must match it element for element.

type oracleIndex struct {
	post    map[uint64][]int32
	keys    []uint64 // sorted kept keys, for deterministic iteration
	dropped int
	pos     int
}

func buildOracleIndex(s []byte, cfg Config) *oracleIndex {
	span, base := cfg.Span(), uint64(cfg.Base)
	offs := cfg.offsets()
	idx := &oracleIndex{post: make(map[uint64][]int32)}
	for p := 0; p+span <= len(s); p++ {
		key := uint64(0)
		ok := true
		for _, o := range offs {
			c := s[p+o]
			if int(c) >= cfg.Base {
				ok = false // ambiguity code in window
				break
			}
			key = key*base + uint64(c)
		}
		if !ok {
			continue
		}
		idx.post[key] = append(idx.post[key], int32(p))
	}
	for key, occ := range idx.post {
		if len(occ) > cfg.MaxOcc {
			delete(idx.post, key)
			idx.dropped++
			continue
		}
		idx.keys = append(idx.keys, key)
		idx.pos += len(occ)
	}
	sort.Slice(idx.keys, func(a, b int) bool { return idx.keys[a] < idx.keys[b] })
	return idx
}

// oraclePair is a seed match between positions i and i+d, packed d high,
// i low, so that pairs sort by diagonal and then position as integers.
type oraclePair uint64

func (p oraclePair) d() int { return int(p >> 32) }
func (p oraclePair) i() int { return int(uint32(p)) }

// oracleChain returns the pairs in (d, i) order, the segments — clusters
// of one diagonal — in (band, Start, D) order, and the clusters.
func oracleChain(x *oracleIndex, cfg Config) ([]oraclePair, []Cluster, []Cluster) {
	span := cfg.Span()
	var pairs []oraclePair
	for _, key := range x.keys {
		occ := x.post[key]
		for a := 0; a < len(occ); a++ {
			hi := a + cfg.SuccPairs
			if hi > len(occ)-1 {
				hi = len(occ) - 1
			}
			for b := a + 1; b <= hi; b++ {
				pairs = append(pairs, oraclePair(occ[b]-occ[a])<<32|oraclePair(occ[a]))
			}
		}
	}
	slices.Sort(pairs)

	var segs []Cluster
	for k := 0; k < len(pairs); {
		d, i := pairs[k].d(), pairs[k].i()
		seg := Cluster{IStart: int32(i), IEnd: int32(i + span), DMin: int32(d), DMax: int32(d), Covered: int32(span), Seeds: 1}
		k++
		for k < len(pairs) && pairs[k].d() == d && pairs[k].i() <= int(seg.IEnd)+cfg.MergeGap {
			i = pairs[k].i()
			if end := i + span; end > int(seg.IEnd) {
				cov := end - int(seg.IEnd)
				if cov > span {
					cov = span
				}
				seg.Covered += int32(cov)
				seg.IEnd = int32(end)
			}
			seg.Seeds++
			k++
		}
		segs = append(segs, seg)
	}

	band := func(s Cluster) int { return int(s.DMin) / cfg.BandWidth }
	slices.SortFunc(segs, func(a, b Cluster) int {
		return cmp.Or(cmp.Compare(band(a), band(b)), cmp.Compare(a.IStart, b.IStart), cmp.Compare(a.DMin, b.DMin))
	})
	var clusters []Cluster
	for k := 0; k < len(segs); {
		cl := segs[k]
		covEnd := segs[k].IEnd
		b := band(segs[k])
		k++
		for k < len(segs) && band(segs[k]) == b && int(segs[k].IStart) <= int(cl.IEnd)+cfg.ChainGap {
			s := segs[k]
			if s.IEnd > cl.IEnd {
				cl.IEnd = s.IEnd
			}
			if s.DMin < cl.DMin {
				cl.DMin = s.DMin
			}
			if s.DMax > cl.DMax {
				cl.DMax = s.DMax
			}
			from := s.IStart
			if covEnd > from {
				from = covEnd
			}
			if newLen := s.IEnd - from; newLen > 0 {
				cov := s.Covered
				if cov > newLen {
					cov = newLen
				}
				cl.Covered += cov
				covEnd = s.IEnd
			}
			cl.Seeds += s.Seeds
			k++
		}
		clusters = append(clusters, cl)
	}
	return pairs, segs, clusters
}

func oracleCandidates(clusters []Cluster, cfg Config, n int, maxScore int32) []Candidate {
	var cands []Candidate
	for _, cl := range clusters {
		if int(cl.Seeds) < cfg.MinSeeds || int(cl.Covered) < cfg.MinMatched {
			continue
		}
		chunk := int(cl.DMin)
		if chunk < 1 {
			chunk = 1
		}
		for t := int(cl.IStart); t < int(cl.IEnd); t += chunk {
			tEnd := t + chunk
			if tEnd > int(cl.IEnd) {
				tEnd = int(cl.IEnd)
			}
			r := align.Rect{
				Y0: t + 1 - cfg.Pad,
				Y1: tEnd,
				X0: t + int(cl.DMin) + 1 - cfg.Pad,
				X1: tEnd + int(cl.DMax) + cfg.Pad,
			}
			if r.Y0 < 1 {
				r.Y0 = 1
			}
			if r.X0 <= r.Y1 {
				r.X0 = r.Y1 + 1
			}
			if r.X1 > n {
				r.X1 = n
			}
			if r.X1 < r.X0 || r.Y1 < r.Y0 {
				continue
			}
			cands = append(cands, Candidate{Rect: r, Bound: admissibleBound(r, maxScore),
				Covered: int(cl.Covered), Seeds: int(cl.Seeds)})
		}
	}
	rectLess := func(a, b align.Rect) bool {
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y1 != b.Y1 {
			return a.Y1 < b.Y1
		}
		return a.X1 < b.X1
	}
	if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].Covered != cands[b].Covered {
				return cands[a].Covered > cands[b].Covered
			}
			return rectLess(cands[a].Rect, cands[b].Rect)
		})
		cands = cands[:cfg.MaxCandidates]
	}
	sort.Slice(cands, func(a, b int) bool { return rectLess(cands[a].Rect, cands[b].Rect) })
	return cands
}

// occurrencesFrom follows the index's links from position p: the
// occurrences of p's seed from p on, in position order.
func occurrencesFrom(x *Index, p int32) []int32 {
	occ := []int32{p}
	for x.next[p] != 0 {
		p = x.next[p]
		occ = append(occ, p)
	}
	return occ
}

// checkIndexAgainstOracle holds the links of x to the oracle's posting
// lists: the same seeds kept and dropped, every kept list one chain, and
// no link outside them.
func checkIndexAgainstOracle(t testing.TB, x *Index, s []byte, cfg Config) *oracleIndex {
	t.Helper()
	ox := buildOracleIndex(s, cfg)
	if x.Kmers() != len(ox.keys) || x.Dropped() != ox.dropped || x.Positions() != ox.pos {
		t.Fatalf("index kept %d dropped %d positions %d, oracle %d/%d/%d",
			x.Kmers(), x.Dropped(), x.Positions(), len(ox.keys), ox.dropped, ox.pos)
	}
	linked := 0
	for _, key := range ox.keys {
		occ := ox.post[key]
		if got := occurrencesFrom(x, occ[0]); !slices.Equal(got, occ) {
			t.Fatalf("seed %d: links from %d give %v, oracle %v", key, occ[0], got, occ)
		}
		linked += len(occ) - 1
	}
	for _, j := range x.next {
		if j != 0 {
			linked--
		}
	}
	if linked != 0 {
		t.Fatalf("%d links beyond the kept posting lists", -linked)
	}
	return ox
}

// checkAgainstOracle runs both front ends on s and fails on the first
// stage whose output differs: the index, then pairs, segments, clusters
// and candidates element for element. The pairs are compared in the
// order the walks visit them, (i, d), and the oracle's are re-sorted to
// it; the segments in the order they are placed, (band, Start, D).
func checkAgainstOracle(t testing.TB, s []byte, cfg Config, maxScore int32) {
	t.Helper()
	x, err := BuildIndex(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ox := checkIndexAgainstOracle(t, x, s, cfg)
	wantPairs, wantSegs, wantClusters := oracleChain(ox, cfg)
	slices.SortFunc(wantPairs, func(a, b oraclePair) int { return cmp.Or(cmp.Compare(a.i(), b.i()), cmp.Compare(a.d(), b.d())) })
	c := newChainer(x, cfg, 1)
	var gotPairs []oraclePair
	c.pairs(0, len(x.next), func(i, d int) { gotPairs = append(gotPairs, oraclePair(d)<<32|oraclePair(i)) })
	if !slices.Equal(gotPairs, wantPairs) {
		t.Fatalf("pairs differ: %d, oracle %d%s", len(gotPairs), len(wantPairs), firstDiff(gotPairs, wantPairs))
	}
	c.segments(crew{})
	if !slices.Equal(c.segs, wantSegs) {
		t.Fatalf("segments differ: %d, oracle %d%s", len(c.segs), len(wantSegs), firstDiff(c.segs, wantSegs))
	}
	ch := Chain(x, cfg)
	if ch.Pairs != len(wantPairs) || ch.Segments != len(wantSegs) {
		t.Fatalf("Chain counts %d pairs %d segments, oracle %d/%d", ch.Pairs, ch.Segments, len(wantPairs), len(wantSegs))
	}
	if !slices.Equal(ch.Clusters, wantClusters) {
		t.Fatalf("clusters differ: %d, oracle %d%s", len(ch.Clusters), len(wantClusters), firstDiff(ch.Clusters, wantClusters))
	}
	got, want := Candidates(ch, cfg, len(s), maxScore), oracleCandidates(wantClusters, cfg, len(s), maxScore)
	if !slices.Equal(got, want) {
		t.Fatalf("candidates differ: %d, oracle %d%s", len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff[T comparable](got, want []T) string {
	for k := 0; k < min(len(got), len(want)); k++ {
		if got[k] != want[k] {
			return fmt.Sprintf("; first at %d: %+v, oracle %+v", k, got[k], want[k])
		}
	}
	return ""
}

// oracleCase is one input and configuration of the oracle's table.
type oracleCase struct {
	name string
	s    []byte
	cfg  Config
}

// oracleCases are inputs that reach each branch of the front end: dense
// protein diagonals, tandem DNA whose segments start together on
// neighbouring diagonals (the tie rule), homopolymer runs over the
// occurrence cap, windows skipped for ambiguity codes, inputs shorter
// than the seed, a spaced mask, and the knobs at both ends (one
// successor or eight, one-diagonal bands or sixteen, a pad that makes
// windows share a top row, gaps and bands wider than the input).
func oracleCases(t testing.TB) []oracleCase {
	tandem := func(subst float64, seed uint64) []byte {
		return seq.Tandem(seq.TandemSpec{Alpha: seq.DNA, UnitLen: 37, Copies: 40, FlankLen: 100,
			Profile: seq.MutationProfile{SubstRate: subst, IndelRate: 0.02, IndelExt: 0.5}, Seed: seed}).Codes
	}
	homopolymers := slices.Concat(make([]byte, 300), seq.SyntheticTitin(400, 2).Codes,
		make([]byte, 90), seq.SyntheticTitin(400, 2).Codes)
	ambiguous := seq.SyntheticTitin(1200, 5).Codes
	for p := 7; p < len(ambiguous); p += 23 {
		ambiguous[p] = 20 + byte(p%3)
	}
	inputs := []struct {
		name string
		base int
		s    []byte
	}{
		{"titin", 20, seq.SyntheticTitin(3000, 1).Codes},
		{"tandem-dna-10", 4, tandem(0.10, 1)},
		{"tandem-dna-25", 4, tandem(0.25, 2)},
		{"homopolymers", 20, homopolymers},
		{"ambiguity-sprinkled", 20, ambiguous},
		{"all-ambiguity", 20, bytes.Repeat([]byte{255}, 64)},
		{"shorter-than-span", 20, []byte{3, 1}},
		{"empty", 4, nil},
	}
	var cases []oracleCase
	for _, in := range inputs {
		add := func(name string, cfg Config) {
			cases = append(cases, oracleCase{in.name + "/" + name, in.s, cfg})
		}
		for _, preset := range []string{PresetFast, PresetBalanced} {
			cfg, err := PresetConfig(preset, in.base)
			if err != nil {
				t.Fatal(err)
			}
			add(preset, cfg)
		}
		knobs := testConfig()
		knobs.Base, knobs.MaxOcc, knobs.MaxCandidates = in.base, 40, 64
		for _, succ := range []int{1, 8} {
			for _, bw := range []int{1, 16} {
				knobs.SuccPairs, knobs.BandWidth = succ, bw
				add(fmt.Sprintf("succ%d-band%d", succ, bw), knobs)
			}
		}
		knobs.K, knobs.Mask = 0, "1101"
		add("mask1101", knobs)
		// a pad wider than the diagonals clamps many windows to top row 1,
		// where cluster order is not window order
		knobs.Pad = 200
		add("pad200", knobs)
		knobs.Pad = 8
		// a request may name any band width and the gaps are plain ints:
		// neither sizes an array nor wraps an int32
		knobs.BandWidth, knobs.MergeGap, knobs.ChainGap = 1<<40, 1<<40, 1<<40
		add("unbounded", knobs)
	}
	return cases
}

// TestChainMatchesOracle holds the sort-free front end to the sort-based
// one it replaced, stage by stage, over the oracle's table.
func TestChainMatchesOracle(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstOracle(t, c.s, c.cfg, 11)
		})
	}
}

// TestChainSplitInvariance: whatever the part count — more parts than
// bands or than positions, parts whose walk range or band range is
// empty — the segments are placed and the clusters chained exactly as by
// one part, over the oracle's table.
func TestChainSplitInvariance(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			x, err := BuildIndex(c.s, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wantSegs []Cluster
			var want ChainResult
			for parts := 1; parts <= 5; parts++ {
				ch := newChainer(x, c.cfg, parts)
				ch.segments(crew{})
				segs := slices.Clone(ch.segs)
				got := ch.chain(crew{})
				if parts == 1 {
					wantSegs, want = segs, got
					continue
				}
				if !slices.Equal(segs, wantSegs) {
					t.Fatalf("%d parts: segments differ from one part's%s", parts, firstDiff(segs, wantSegs))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d parts: %d pairs %d segments %d clusters, one part %d/%d/%d%s", parts,
						got.Pairs, got.Segments, len(got.Clusters), want.Pairs, want.Segments, len(want.Clusters),
						firstDiff(got.Clusters, want.Clusters))
				}
			}
		})
	}
}

// TestChainSplitAnyBoundary moves the boundary between two parts across
// every position of a mutated tandem array, so that some boundary falls
// right after each seed, within reach of the next on its diagonal and
// exactly at reach: the part after must skip a segment's seeds exactly
// when the part before follows it past the boundary.
func TestChainSplitAnyBoundary(t *testing.T) {
	s := seq.Tandem(seq.TandemSpec{UnitLen: 23, Copies: 12, FlankLen: 20,
		Profile: seq.MutationProfile{SubstRate: 0.15, IndelRate: 0.02, IndelExt: 0.5}, Seed: 3}).Codes
	for _, gap := range []int{0, 8} {
		cfg := testConfig()
		cfg.MergeGap = gap
		x, err := BuildIndex(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		one := newChainer(x, cfg, 1)
		one.segments(crew{})
		want := one.chain(crew{})
		for b := 0; b <= len(s); b++ {
			c := newChainer(x, cfg, 2)
			c.parts[0].hi, c.parts[1].lo = b, b
			c.segments(crew{})
			if got := c.chain(crew{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("merge gap %d, boundary at %d: %d segments %d clusters, one part %d/%d%s", gap, b,
					got.Segments, len(got.Clusters), want.Segments, len(want.Clusters), firstDiff(got.Clusters, want.Clusters))
			}
		}
	}
}
