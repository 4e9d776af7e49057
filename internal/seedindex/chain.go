package seedindex

import (
	"cmp"
	"slices"

	"repro/internal/align"
	"repro/internal/topalign"
)

// Segment is a run of same-diagonal seed matches merged within MergeGap:
// prefix positions [Start, End) match suffix positions [Start+D, End+D)
// (0-based). Covered counts distinct covered residues, overlap-adjusted.
type Segment struct {
	D          int32 // diagonal j - i, >= 1
	Start, End int32 // 0-based i-range, End exclusive
	Covered    int32
	Seeds      int32
}

// Cluster is a group of segments chained within one diagonal band.
type Cluster struct {
	IStart, IEnd int32 // 0-based i-range union, End exclusive
	DMin, DMax   int32
	Covered      int32
	Seeds        int32
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

// seedPairs enumerates the capped seed matches of the index — every
// occurrence i with its next min(SuccPairs, remaining) same-seed
// successors j, on diagonal d = j - i — and returns the i's grouped by
// diagonal, ascending within each: diagonal d holds pairs[end[d-1]:end[d]].
//
// A pair (d, i) occurs once, positions are walked in i order, and d is a
// small integer, so (d, i) order is one stable counting pass over d. The
// walk runs twice, once to count each diagonal and once to place, instead
// of buffering the pairs in between: it reads only the links.
func seedPairs(x *Index, succPairs int) (pairs, end []int32) {
	end = make([]int32, len(x.next)+1)
	for i, j := range x.next {
		for k := 0; j != 0 && k < succPairs; k++ {
			end[int(j)-i+1]++
			j = x.next[j]
		}
	}
	total := int32(0)
	for d, c := range end { // end[d] = the pairs on diagonals below d
		total += c
		end[d] = total
	}
	pairs = make([]int32, total)
	for i, j := range x.next {
		for k := 0; j != 0 && k < succPairs; k++ {
			d := int(j) - i
			pairs[end[d]] = int32(i)
			end[d]++
			j = x.next[j]
		}
	}
	return pairs, end
}

// mergeSegment merges the seeds of diagonal d at the front of is (their
// ascending i's, not empty), each starting within mergeGap of the end of
// the one before, and returns the segment and the i's after it.
func mergeSegment(d int32, is []int32, span int32, mergeGap int) (Segment, []int32) {
	seg := Segment{D: d, Start: is[0], End: is[0] + span, Covered: span, Seeds: 1}
	k := 1
	for ; k < len(is) && int(is[k]) <= int(seg.End)+mergeGap; k++ {
		end := is[k] + span // past seg.End: the i's ascend strictly
		seg.Covered += min(end-seg.End, span)
		seg.End = end
		seg.Seeds++
	}
	return seg, is[k:]
}

// diagRun is one diagonal inside a band merge: the segment merged off
// the front of its seeds, and the seeds after it.
type diagRun struct {
	head Segment
	rest []int32
}

// Chain enumerates capped seed-match pairs from the index, merges
// same-diagonal runs into segments, and chains segments into clusters
// within diagonal bands. The result is deterministic in the input.
//
// Band bucketing keeps distinct repeat periodicities apart (a tandem
// family appears at diagonals u, 2u, ... — each its own band, hence its
// own candidates) while letting indel-wandering diagonals cluster. A
// cluster takes its band's segments in (Start, D) order. Each diagonal
// yields its segments in Start order already, so a band is a merge of at
// most BandWidth such runs, ties going to the lower diagonal; a segment
// is chained the moment it is merged and never stored.
func Chain(x *Index, cfg Config) ChainResult {
	pairs, end := seedPairs(x, cfg.SuccPairs)
	span := int32(x.span)

	// A cluster holds at least one segment: count those first, so the
	// list is sized by what it can hold, not by the pairs.
	nsegs := 0
	for d := 1; d < len(end); d++ {
		for is := pairs[end[d-1]:end[d]]; len(is) > 0; nsegs++ {
			_, is = mergeSegment(int32(d), is, span, cfg.MergeGap)
		}
	}
	clusters := make([]Cluster, 0, nsegs)
	runs := make([]diagRun, 0, min(cfg.BandWidth, len(end)))
	for lo := 0; lo < len(end); lo += cfg.BandWidth {
		runs = runs[:0]
		for d := max(lo, 1); d < min(lo+cfg.BandWidth, len(end)); d++ {
			if is := pairs[end[d-1]:end[d]]; len(is) > 0 {
				var r diagRun
				r.head, r.rest = mergeSegment(int32(d), is, span, cfg.MergeGap)
				runs = append(runs, r)
			}
		}
		// covEnd tracks the union sweep over i-ranges: band-mates on
		// nearby diagonals overlap in i, and summing their Covered
		// outright would double-count stacked segments — an inflated
		// cluster could then crowd out genuinely better-supported ones
		// under MaxCandidates and sneak past MinMatched. Each segment
		// contributes at most the length of its not-yet-covered i-suffix,
		// so Covered never exceeds IEnd-IStart (segments arrive sorted by
		// Start within the band, making the one-pass sweep exact).
		var cl *Cluster
		var covEnd int32
		for len(runs) > 0 {
			at := 0
			for r := 1; r < len(runs); r++ {
				if runs[r].head.Start < runs[at].head.Start {
					at = r
				}
			}
			s := runs[at].head
			if len(runs[at].rest) > 0 {
				runs[at].head, runs[at].rest = mergeSegment(s.D, runs[at].rest, span, cfg.MergeGap)
			} else {
				runs = append(runs[:at], runs[at+1:]...)
			}
			if cl == nil || int(s.Start) > int(cl.IEnd)+cfg.ChainGap {
				clusters = append(clusters, Cluster{IStart: s.Start, IEnd: s.End,
					DMin: s.D, DMax: s.D, Covered: s.Covered, Seeds: s.Seeds})
				cl, covEnd = &clusters[len(clusters)-1], s.End
				continue
			}
			cl.IEnd = max(cl.IEnd, s.End)
			cl.DMin = min(cl.DMin, s.D)
			cl.DMax = max(cl.DMax, s.D)
			if newLen := s.End - max(s.Start, covEnd); newLen > 0 {
				cl.Covered += min(s.Covered, newLen)
				covEnd = s.End
			}
			cl.Seeds += s.Seeds
		}
	}
	return ChainResult{Clusters: clusters, Pairs: len(pairs), Segments: nsegs}
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
	// A window's top row is an integer in [1, n], so rectCmp order is one
	// stable counting pass over it — the clusters walked twice, to count
	// and to place — and then the few windows that share a top row
	// ordered among themselves.
	end := make([]int32, n+2)
	eachWindow(ch.Clusters, cfg, n, func(r align.Rect, _ Cluster) { end[r.Y0+1]++ })
	for y := 1; y < len(end); y++ { // end[y] = the windows above row y
		end[y] += end[y-1]
	}
	cands := make([]Candidate, end[n+1])
	eachWindow(ch.Clusters, cfg, n, func(r align.Rect, cl Cluster) {
		cands[end[r.Y0]] = Candidate{Rect: r, Bound: admissibleBound(r, maxScore),
			Covered: int(cl.Covered), Seeds: int(cl.Seeds)}
		end[r.Y0]++
	})
	for y := 1; y <= n; y++ {
		if row := cands[end[y-1]:end[y]]; len(row) > 1 {
			slices.SortFunc(row, func(a, b Candidate) int { return rectCmp(a.Rect, b.Rect) })
		}
	}
	if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
		cands = capByCovered(cands, cfg.MaxCandidates)
	}
	return cands
}

// eachWindow calls visit with every candidate window of the filtered
// clusters, in cluster order, and the cluster it was cut from.
func eachWindow(clusters []Cluster, cfg Config, n int, visit func(align.Rect, Cluster)) {
	for _, cl := range clusters {
		if int(cl.Seeds) < cfg.MinSeeds || int(cl.Covered) < cfg.MinMatched {
			continue
		}
		iEnd, dMin, dMax := int(cl.IEnd), int(cl.DMin), int(cl.DMax)
		chunk := max(dMin, 1)
		for t := int(cl.IStart); t < iEnd; t += chunk {
			tEnd := min(t+chunk, iEnd)
			r := align.Rect{
				Y0: max(t+1-cfg.Pad, 1),
				Y1: tEnd,
				X0: max(t+dMin+1-cfg.Pad, tEnd+1),
				X1: min(tEnd+dMax+cfg.Pad, n),
			}
			if r.X1 >= r.X0 && r.Y1 >= r.Y0 { // else degenerate after clamping (cluster at sequence end)
				visit(r, cl)
			}
		}
	}
}

// capByCovered keeps the k best-covered of cands (more than k of them, in
// rectCmp order), in place and in that order. A histogram of Covered
// finds what the k-th best covers: everything above that stays, and of
// the windows at it the earliest — ties break positionally, so the cap
// is deterministic.
func capByCovered(cands []Candidate, k int) []Candidate {
	most := 0
	for _, c := range cands {
		most = max(most, c.Covered)
	}
	count := make([]int, most+1)
	for _, c := range cands {
		count[c.Covered]++
	}
	cut := most
	for ; count[cut] <= k; cut-- {
		k -= count[cut]
	}
	kept := cands[:0]
	for _, c := range cands {
		if c.Covered == cut && k > 0 {
			k--
		} else if c.Covered <= cut {
			continue
		}
		kept = append(kept, c)
	}
	return kept
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

// rectCmp orders windows by top row, then left column, then bottom row,
// then right column.
func rectCmp(a, b align.Rect) int {
	return cmp.Or(cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.X0, b.X0),
		cmp.Compare(a.Y1, b.Y1), cmp.Compare(a.X1, b.X1))
}
