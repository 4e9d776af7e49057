// Package repeats implements the delineation stage of the Repro method:
// turning the nonoverlapping top alignments of package topalign into
// repeat families with explicit copy boundaries. (The paper computes the
// top alignments — its Section 6 names delineation improvements as
// future work; this package provides the baseline interval-graph
// delineation the method's output feeds.)
//
// Each top alignment locally aligns two segments of the sequence — two
// copies of some repeat. Segments from different top alignments that
// overlap substantially on the sequence describe the same copy; segments
// connected by an alignment belong to the same family. Families are the
// connected components of that graph, and a family's copies are the
// merged overlap-components of its segments.
package repeats

import (
	"fmt"
	"sort"

	"repro/internal/topalign"
)

// Segment is an inclusive positional interval [Start, End], 1-based.
type Segment struct {
	Start, End int
}

// Len returns the number of positions covered.
func (s Segment) Len() int { return s.End - s.Start + 1 }

// overlap returns the number of shared positions of two segments.
func (s Segment) overlap(o Segment) int {
	lo, hi := max(s.Start, o.Start), min(s.End, o.End)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// Family is one repeat family: its copies in sequence order and the
// top alignments supporting it.
type Family struct {
	Copies  []Segment
	Support int   // number of contributing top alignments
	Score   int64 // summed alignment scores
}

// UnitLen estimates the family's repeat unit length (median copy
// length).
func (f Family) UnitLen() int {
	if len(f.Copies) == 0 {
		return 0
	}
	lens := make([]int, len(f.Copies))
	for i, c := range f.Copies {
		lens[i] = c.Len()
	}
	sort.Ints(lens)
	return lens[len(lens)/2]
}

// DefaultMinPairs is the MinPairs a value <= 0 selects.
const DefaultMinPairs = 3

// Options tunes delineation.
type Options struct {
	// MinPairs drops top alignments with fewer matched pairs (too weak
	// to delineate anything). Default DefaultMinPairs.
	MinPairs int
	// MinOverlapFrac is the fraction of the shorter segment two
	// segments must share to be the same copy. Default 0.5.
	MinOverlapFrac float64
	// KeepRawCopies disables tandem re-segmentation (see Delineate).
	KeepRawCopies bool
	// MinPeriod is the smallest repeat period re-segmentation will
	// accept. Default 3.
	MinPeriod int
}

func (o Options) withDefaults() Options {
	if o.MinPairs <= 0 {
		o.MinPairs = DefaultMinPairs
	}
	if o.MinOverlapFrac <= 0 || o.MinOverlapFrac > 1 {
		o.MinOverlapFrac = 0.5
	}
	if o.MinPeriod <= 0 {
		o.MinPeriod = 3
	}
	return o
}

// Delineate derives repeat families from top alignments over a sequence
// of length m. Families are returned sorted by descending score; copies
// within a family by start position.
func Delineate(m int, tops []topalign.TopAlignment, opt Options) ([]Family, error) {
	opt = opt.withDefaults()
	type seg struct {
		Segment
		top int // index into kept tops
	}
	var segs []seg
	var kept []topalign.TopAlignment
	for _, top := range tops {
		if len(top.Pairs) < opt.MinPairs {
			continue
		}
		si := Segment{Start: top.Pairs[0].I, End: top.Pairs[len(top.Pairs)-1].I}
		sj := Segment{Start: top.Pairs[0].J, End: top.Pairs[len(top.Pairs)-1].J}
		if si.Start < 1 || sj.End > m {
			return nil, fmt.Errorf("repeats: top alignment %d has pairs outside sequence length %d", top.Index, m)
		}
		idx := len(kept)
		kept = append(kept, top)
		segs = append(segs, seg{Segment: si, top: idx}, seg{Segment: sj, top: idx})
	}
	if len(segs) == 0 {
		return nil, nil
	}

	// Union-find with two edge kinds: overlap (same copy) and alignment
	// (same family). Family components use both; copy components only
	// overlap edges.
	n := len(segs)
	family := newUF(n)
	copyUF := newUF(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ov := segs[i].overlap(segs[j].Segment)
			if ov == 0 {
				continue
			}
			shorter := min(segs[i].Len(), segs[j].Len())
			if float64(ov) >= opt.MinOverlapFrac*float64(shorter) {
				family.union(i, j)
				copyUF.union(i, j)
			}
		}
	}
	// the two segments of one alignment are the same family
	for i := 0; i < n; i += 2 {
		family.union(i, i+1)
	}

	// assemble: family root -> copy root -> merged segment
	type copyAcc struct{ s Segment }
	famCopies := map[int]map[int]*copyAcc{}
	famTops := map[int]map[int]bool{}
	for i, sg := range segs {
		f := family.find(i)
		c := copyUF.find(i)
		if famCopies[f] == nil {
			famCopies[f] = map[int]*copyAcc{}
			famTops[f] = map[int]bool{}
		}
		famTops[f][sg.top] = true
		if acc := famCopies[f][c]; acc == nil {
			famCopies[f][c] = &copyAcc{s: sg.Segment}
		} else {
			acc.s.Start = min(acc.s.Start, sg.Start)
			acc.s.End = max(acc.s.End, sg.End)
		}
	}

	var out []Family
	for f, copies := range famCopies {
		fam := Family{Support: len(famTops[f])}
		for _, acc := range copies {
			fam.Copies = append(fam.Copies, acc.s)
		}
		sort.Slice(fam.Copies, func(a, b int) bool {
			if fam.Copies[a].Start != fam.Copies[b].Start {
				return fam.Copies[a].Start < fam.Copies[b].Start
			}
			return fam.Copies[a].End < fam.Copies[b].End
		})
		for t := range famTops[f] {
			fam.Score += int64(kept[t].Score)
		}
		if !opt.KeepRawCopies {
			resegmentTandem(&fam, famTops[f], kept, opt)
		}
		out = append(out, fam)
	}
	// Full tie-break chain: out was assembled from a map range, so any
	// comparator tie would surface that random order to callers.
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].Copies[0].Start != out[b].Copies[0].Start {
			return out[a].Copies[0].Start < out[b].Copies[0].Start
		}
		if out[a].Copies[0].End != out[b].Copies[0].End {
			return out[a].Copies[0].End < out[b].Copies[0].End
		}
		return len(out[a].Copies) < len(out[b].Copies)
	})
	return out, nil
}

// resegmentTandem splits a collapsed tandem family back into unit-sized
// copies. Top alignments of a tandem repeat exist at every multiple of
// the base period, so overlap clustering can merge several true copies
// into one long segment; the family's base period is recoverable as the
// smallest alignment lag (median J-I over a top's pairs). If the family
// tiles a contiguous region in fewer copies than the period implies, the
// region is cut at period boundaries — the "extra filtering to select
// the best repeat" the paper's Section 6 proposes for sequences like
// AACAACAACAAC.
func resegmentTandem(fam *Family, tops map[int]bool, kept []topalign.TopAlignment, opt Options) {
	if len(fam.Copies) == 0 {
		return
	}
	// Iterate supporting alignments in index order: map range order is
	// random per execution, and both the period min and the anchor
	// argmax below break ties by encounter order. A tie decided by map
	// order made Analyze return different family boundaries run to run
	// — fatal for the serving layer, whose shared cache and distributed
	// singleflight assume bit-identical recomputation.
	idxs := make([]int, 0, len(tops))
	for t := range tops {
		idxs = append(idxs, t)
	}
	sort.Ints(idxs)

	period := 0
	for _, t := range idxs {
		if lag := medianLag(kept[t].Pairs); period == 0 || lag < period {
			period = lag
		}
	}
	if period < opt.MinPeriod {
		return
	}
	region := Segment{Start: fam.Copies[0].Start, End: fam.Copies[len(fam.Copies)-1].End}
	want := region.Len() / period
	if want < 2 || len(fam.Copies) >= want {
		return // already segmented at (or finer than) the base period
	}
	// only a *contiguous* tandem region may be re-cut: interspersed
	// families span gaps that must not be fabricated into copies
	covered := 0
	for _, c := range fam.Copies {
		covered += c.Len()
	}
	if covered*10 < region.Len()*8 {
		return
	}
	// anchor the period grid at the strongest alignment's start, so
	// unit boundaries phase-align with the actual repeat rather than
	// with flank noise the weakest alignments dragged into the hull
	best := -1
	for _, t := range idxs {
		if best < 0 || kept[t].Score > kept[best].Score {
			best = t // ties keep the lowest index (strongest-first order of kept)
		}
	}
	anchor := kept[best].Pairs[0].I
	if anchor < region.Start || anchor > region.End {
		anchor = region.Start
	}
	gridStart := region.Start + (anchor-region.Start)%period

	var units []Segment
	for start := gridStart; start+period-1 <= region.End; start += period {
		units = append(units, Segment{Start: start, End: start + period - 1})
	}
	if len(units) == 0 {
		return
	}
	// fold the off-grid leading and trailing remainders into partial
	// units (>= half a period) or into their neighbours
	if lead := gridStart - region.Start; lead > 0 {
		if lead*2 >= period {
			units = append([]Segment{{Start: region.Start, End: gridStart - 1}}, units...)
		} else {
			units[0].Start = region.Start
		}
	}
	if rem := region.End - units[len(units)-1].End; rem > 0 {
		if rem*2 >= period {
			units = append(units, Segment{Start: units[len(units)-1].End + 1, End: region.End})
		} else {
			units[len(units)-1].End = region.End
		}
	}
	fam.Copies = units
}

// medianLag returns the median J-I offset of an alignment's pairs.
func medianLag(pairs []topalign.Pair) int {
	if len(pairs) == 0 {
		return 0
	}
	lags := make([]int, len(pairs))
	for i, p := range pairs {
		lags[i] = p.J - p.I
	}
	sort.Ints(lags)
	return lags[len(lags)/2]
}

// uf is a plain union-find.
type uf struct {
	parent []int
}

func newUF(n int) *uf {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &uf{parent: p}
}

func (u *uf) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
