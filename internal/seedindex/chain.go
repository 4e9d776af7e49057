package seedindex

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/align"
	"repro/internal/topalign"
)

// Segment is a run of same-diagonal seed matches merged within MergeGap:
// prefix positions [Start, End) match suffix positions [Start+D, End+D)
// (0-based). Covered counts distinct covered residues, overlap-adjusted.
type Segment struct {
	D          int // diagonal j - i, >= 1
	Start, End int // 0-based i-range, End exclusive
	Covered    int
	Seeds      int
}

// Cluster is a group of segments chained within one diagonal band.
type Cluster struct {
	IStart, IEnd int // 0-based i-range union, End exclusive
	DMin, DMax   int
	Covered      int
	Seeds        int
}

// ChainResult carries the chained clusters plus stage counts for stats.
type ChainResult struct {
	Clusters []Cluster
	Pairs    int
	Segments int
}

// Candidate is one windowed extension task: a rectangle in global pair
// space plus an admissible score upper bound.
type Candidate struct {
	Rect    align.Rect
	Bound   int32
	Covered int
	Seeds   int
}

// seedPair is a seed match between positions i and i+d, packed d high,
// i low (both are non-negative int32s), so that pairs sort by diagonal
// and then position as plain integers.
type seedPair uint64

func (p seedPair) d() int { return int(p >> 32) }
func (p seedPair) i() int { return int(uint32(p)) }

// Chain enumerates capped seed-match pairs from the index, merges
// same-diagonal runs into segments, and chains segments into clusters
// within diagonal bands. The result is deterministic in the input.
//
// Each of the three lists is counted before it is allocated: grown by
// append from nil, their 8-, 40- and 48-byte elements spent 40% of the
// stage copying into bigger arrays and collecting the old ones.
func Chain(x *Index, cfg Config) ChainResult {
	span := x.Span()
	npairs := 0
	for _, key := range x.Keys() {
		n := len(x.Occurrences(key))
		// occurrence a pairs with its next min(SuccPairs, n-1-a) successors
		if full := n - cfg.SuccPairs; full > 0 {
			npairs += full*cfg.SuccPairs + cfg.SuccPairs*(cfg.SuccPairs-1)/2
		} else {
			npairs += n * (n - 1) / 2
		}
	}
	pairs := make([]seedPair, 0, npairs)
	for _, key := range x.Keys() {
		occ := x.Occurrences(key)
		for a := 0; a < len(occ); a++ {
			hi := a + cfg.SuccPairs
			if hi > len(occ)-1 {
				hi = len(occ) - 1
			}
			for b := a + 1; b <= hi; b++ {
				pairs = append(pairs, seedPair(occ[b]-occ[a])<<32|seedPair(occ[a]))
			}
		}
	}
	slices.Sort(pairs)

	// Merge same-diagonal seeds within MergeGap into segments.
	nsegs := 0
	for k := 0; k < len(pairs); nsegs++ {
		_, k = mergeSegment(pairs, k, span, cfg.MergeGap)
	}
	segs := make([]Segment, 0, nsegs)
	for k := 0; k < len(pairs); {
		var seg Segment
		seg, k = mergeSegment(pairs, k, span, cfg.MergeGap)
		segs = append(segs, seg)
	}

	// Chain segments into clusters within diagonal bands. Band bucketing
	// keeps distinct repeat periodicities apart (a tandem family appears
	// at diagonals u, 2u, ... — each its own band, hence its own
	// candidates) while letting indel-wandering diagonals cluster.
	// Segments come out of the merge in diagonal order, so each band is
	// already one contiguous run: sorting the runs by (Start, D) is the
	// sort by (band, Start, D), minus two divisions per comparison. Two
	// segments of one diagonal never share a Start, so the order is total.
	for lo := 0; lo < len(segs); {
		band := segs[lo].D / cfg.BandWidth
		hi := lo + 1
		for hi < len(segs) && segs[hi].D/cfg.BandWidth == band {
			hi++
		}
		slices.SortFunc(segs[lo:hi], func(a, b Segment) int {
			if a.Start != b.Start {
				return cmp.Compare(a.Start, b.Start)
			}
			return cmp.Compare(a.D, b.D)
		})
		lo = hi
	}
	nclusters := 0
	for k := 0; k < len(segs); nclusters++ {
		_, k = chainCluster(segs, k, cfg)
	}
	clusters := make([]Cluster, 0, nclusters)
	for k := 0; k < len(segs); {
		var cl Cluster
		cl, k = chainCluster(segs, k, cfg)
		clusters = append(clusters, cl)
	}
	return ChainResult{Clusters: clusters, Pairs: len(pairs), Segments: len(segs)}
}

// mergeSegment merges the run of same-diagonal seeds that starts at
// pairs[k], each within mergeGap of the segment so far, and returns the
// segment and the index of the first pair after it.
func mergeSegment(pairs []seedPair, k, span, mergeGap int) (Segment, int) {
	d, i := pairs[k].d(), pairs[k].i()
	seg := Segment{D: d, Start: i, End: i + span, Covered: span, Seeds: 1}
	k++
	for k < len(pairs) && pairs[k].d() == d && pairs[k].i() <= seg.End+mergeGap {
		i = pairs[k].i()
		if end := i + span; end > seg.End {
			cov := end - seg.End
			if cov > span {
				cov = span
			}
			seg.Covered += cov
			seg.End = end
		}
		seg.Seeds++
		k++
	}
	return seg, k
}

// chainCluster chains the run of band-mates that starts at segs[k], each
// within ChainGap of the cluster so far, and returns the cluster and the
// index of the first segment after it.
func chainCluster(segs []Segment, k int, cfg Config) (Cluster, int) {
	band := segs[k].D / cfg.BandWidth
	cl := Cluster{IStart: segs[k].Start, IEnd: segs[k].End,
		DMin: segs[k].D, DMax: segs[k].D,
		Covered: segs[k].Covered, Seeds: segs[k].Seeds}
	// covEnd tracks the union sweep over i-ranges: band-mates on
	// nearby diagonals overlap in i, and summing their Covered
	// outright would double-count stacked segments — an inflated
	// cluster could then crowd out genuinely better-supported ones
	// under MaxCandidates and sneak past MinMatched. Each segment
	// contributes at most the length of its not-yet-covered i-suffix,
	// so Covered never exceeds IEnd-IStart (segments arrive sorted by
	// Start within the band, making the one-pass sweep exact).
	covEnd := segs[k].End
	k++
	for k < len(segs) && segs[k].D/cfg.BandWidth == band && segs[k].Start <= cl.IEnd+cfg.ChainGap {
		s := segs[k]
		if s.End > cl.IEnd {
			cl.IEnd = s.End
		}
		if s.D < cl.DMin {
			cl.DMin = s.D
		}
		if s.D > cl.DMax {
			cl.DMax = s.D
		}
		from := s.Start
		if covEnd > from {
			from = covEnd
		}
		if newLen := s.End - from; newLen > 0 {
			cov := s.Covered
			if cov > newLen {
				cov = newLen
			}
			cl.Covered += cov
			covEnd = s.End
		}
		cl.Seeds += s.Seeds
		k++
	}
	return cl, k
}

// Candidates converts filtered clusters into candidate windows over a
// sequence of length n, with admissible bounds computed from the
// exchange matrix's maximum score maxScore.
//
// A cluster whose i-extent exceeds its minimum diagonal (a long tandem
// run) is chopped into row chunks of length DMin. This mirrors the exact
// engine's structure: an alignment in the split-r matrix has all its
// prefix positions <= r and suffix positions > r, so any top alignment
// on diagonal d spans fewer than d rows — the full engine, too, reports
// a long tandem array as multiple sub-diagonal-length alignments. Each
// chunk's window is padded on top/left/right (never the bottom: the
// bottom row is the alignment's ending split, which must stay
// seed-supported) and clamped so that Y1 < X0 always holds.
func Candidates(ch ChainResult, cfg Config, n int, maxScore int32) []Candidate {
	var cands []Candidate
	for _, cl := range ch.Clusters {
		if cl.Seeds < cfg.MinSeeds || cl.Covered < cfg.MinMatched {
			continue
		}
		chunk := cl.DMin
		if chunk < 1 {
			chunk = 1
		}
		for t := cl.IStart; t < cl.IEnd; t += chunk {
			tEnd := t + chunk
			if tEnd > cl.IEnd {
				tEnd = cl.IEnd
			}
			r := align.Rect{
				Y0: t + 1 - cfg.Pad,
				Y1: tEnd,
				X0: t + cl.DMin + 1 - cfg.Pad,
				X1: tEnd + cl.DMax + cfg.Pad,
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
				continue // degenerate after clamping (cluster at sequence end)
			}
			cands = append(cands, Candidate{
				Rect:    r,
				Bound:   admissibleBound(r, maxScore),
				Covered: cl.Covered,
				Seeds:   cl.Seeds,
			})
		}
	}
	if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
		// Keep the best-supported candidates; ties break positionally so
		// the cap is deterministic.
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

// admissibleBound returns an upper bound on any alignment score inside
// the window: a path matches at most min(H, W) residue pairs, each
// scoring at most maxScore, and affine gap penalties only subtract
// (scoring.Gap requires Open >= 0, Ext > 0).
func admissibleBound(r align.Rect, maxScore int32) int32 {
	m := r.H()
	if w := r.W(); w < m {
		m = w
	}
	b := int64(maxScore) * int64(m)
	if b >= int64(topalign.Infinity) {
		b = int64(topalign.Infinity) - 1
	}
	if b < 0 {
		b = 0
	}
	return int32(b)
}

func rectLess(a, b align.Rect) bool {
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
