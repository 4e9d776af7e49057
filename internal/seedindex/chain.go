package seedindex

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/stats"
	"repro/internal/topalign"
)

// Cluster is a group of seed segments chained within one diagonal band.
// A segment — a run of same-diagonal seed matches merged within MergeGap,
// prefix positions [IStart, IEnd) matching suffix positions shifted by
// the diagonal — is a cluster of one: DMin = DMax. Covered counts
// distinct covered residues, overlap-adjusted.
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

// minSplitPositions is the least an index must hold, in indexed
// positions (each pairs with up to SuccPairs successors), for Chain to
// split its walks and sweep across the cores the process can spare.
// Below it the second part's diagonals and goroutines cost about what
// its share saves: on balanced synthetic titin two parts took 105% of
// one part's time at 8 000 positions, 91% at 16 000 and 84% at 32 000.
const minSplitPositions = 1 << 14

// Chain enumerates capped seed-match pairs from the index, merges
// same-diagonal runs into segments, and chains segments into clusters
// within diagonal bands. The result is deterministic in the input, and
// the same however many cores run it.
//
// Band bucketing keeps distinct repeat periodicities apart (a tandem
// family appears at diagonals u, 2u, ... — each its own band, hence its
// own candidates) while letting indel-wandering diagonals cluster. A
// cluster takes its band's segments in (Start, D) order, and that is the
// order they open in: the pairs come in (i, d) order, so a walk over the
// links opens every segment straight into its band's place — a counting
// walk before it says where each band's begin — and extends it there,
// and a sweep over each band's segments chains them into clusters in
// place. Over minSplitPositions the walks split by i-range and the sweep
// by band range across the cores no other engine goroutine holds
// (topalign.Reserve).
func Chain(x *Index, cfg Config) ChainResult { return chainOnCores(x, cfg, crew{}) }

// chainOnCores is Chain in as many parts as the process has cores to
// spare, its workers billed and traced through cr.
func chainOnCores(x *Index, cfg Config, cr crew) ChainResult {
	parts := 1
	if x.pos >= minSplitPositions {
		places := int(topalign.Reserve(int32(runtime.GOMAXPROCS(0))))
		defer func() {
			for range places {
				topalign.Release()
			}
		}()
		parts += places
	}
	c := newChainer(x, cfg, parts)
	c.segments(cr)
	return c.chain(cr)
}

// crew runs one phase of a chainer in each of its parts and returns when
// all are done: part 0 on the calling goroutine, every other part on a
// goroutine of its own, which bills its thread CPU to counters and
// records a span under parent, as a parallel worker does. The zero crew
// bills and records nothing.
type crew struct {
	counters *stats.Counters
	spans    *trace.Recorder
	parent   trace.SpanID
	rank     int32
}

func (cr crew) run(c *chainer, name string, phase func(c *chainer, p int)) {
	if len(c.parts) == 1 {
		phase(c, 0)
		return
	}
	var wg sync.WaitGroup
	for p := 1; p < len(c.parts); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := cr.spans.Start(cr.parent, name)
			sp.SetRank(cr.rank)
			sp.SetArg(int64(p))
			defer sp.End()
			var sw attrib.Stopwatch
			sw.Start()
			defer func() { cr.counters.AddCPU(sw.Stop()) }()
			phase(c, p)
		}()
	}
	phase(c, 0)
	wg.Wait()
}

// chainer is one Chain call in len(parts) parts. The walks (count,
// place) give each part the pairs whose i is in its range [lo, hi). A
// segment belongs to the part whose range holds its first seed; that
// part follows it past hi, and the parts after skip its seeds, which
// each walk tells by first reading back reach positions before lo. The
// sweep gives each part a range of bands.
type chainer struct {
	x      *Index
	succ   int
	span   int32
	reach  int // span + MergeGap: a seed at most this far past the one before it on its diagonal extends that one's segment
	gap    int // ChainGap
	width  int // BandWidth, or n if that is less: diagonal d is in band d/width
	nbands int
	parts  []part
	opens  []int32   // per part, per band: segments opened; then where the next goes
	start  []int32   // per band: where its segments begin; start[nbands] is their count
	segs   []Cluster // segments by (band, Start, D), chained in place into clusters
}

// part is one part's range for the walks, what its walks saw last on
// each diagonal, and what it counted.
type part struct {
	lo, hi int
	diags  []diag
	pairs  int // pairs whose i is in [lo, hi)
	kept   int // clusters the sweep left at the front of the part's bands
}

// diag is what a walk saw last on one diagonal: the seed i, as i+1 (0:
// none), and the index in segs of the segment holding it, -1 if that
// segment is an earlier part's. count reads only last.
type diag struct{ last, seg int32 }

func newChainer(x *Index, cfg Config, parts int) *chainer {
	n := len(x.next)
	width := min(cfg.BandWidth, max(n, 1)) // diagonals are below n: a wider band is one band
	c := &chainer{x: x, succ: cfg.SuccPairs, span: int32(x.span), reach: x.span + cfg.MergeGap,
		gap: cfg.ChainGap, width: width, nbands: max(n-1, 0)/width + 1}
	slab := make([]int32, parts*c.nbands+c.nbands+1)
	c.opens, c.start = slab[:parts*c.nbands], slab[parts*c.nbands:]
	c.parts = make([]part, parts)
	c.splitWalks()
	return c
}

// splitWalks gives the parts contiguous ranges of i holding about as
// many pairs each. Equal ranges would not: a seed's early occurrences
// pair with more successors than its late ones. Every walkStride-th
// position's pairs stand for those of its stride.
func (c *chainer) splitWalks() {
	const walkStride = 64
	n, parts := len(c.x.next), len(c.parts)
	c.parts[parts-1].hi = n
	if parts == 1 {
		return
	}
	total := 0
	for i := 0; i < n; i += walkStride {
		c.pairs(i, i+1, func(int, int) { total++ })
	}
	p, seen := 1, 0
	for i := 0; i < n && p < parts; i += walkStride {
		for ; p < parts && seen*parts >= total*p; p++ {
			c.parts[p].lo = i
		}
		c.pairs(i, i+1, func(int, int) { seen++ })
	}
	for ; p < parts; p++ {
		c.parts[p].lo = n
	}
	for p := range parts - 1 {
		c.parts[p].hi = c.parts[p+1].lo
	}
}

// segments counts, then places, every segment in (band, Start, D) order.
// A band's segments go part by part: the parts walk i in order, so that
// is still (Start, D) order.
func (c *chainer) segments(cr crew) {
	cr.run(c, "prefilter.chain.count", (*chainer).count)
	total := int32(0)
	for b := range c.nbands {
		c.start[b] = total
		for p := range c.parts {
			k := &c.opens[p*c.nbands+b]
			total, *k = total+*k, total
		}
	}
	c.start[c.nbands] = total
	c.segs = make([]Cluster, total)
	cr.run(c, "prefilter.chain.place", (*chainer).place)
}

// chain sweeps the placed segments into clusters and joins the parts'
// clusters in band order.
func (c *chainer) chain(cr crew) ChainResult {
	cr.run(c, "prefilter.chain.sweep", (*chainer).sweep)
	pairs, kept := 0, 0
	for p, pt := range c.parts {
		pairs += pt.pairs
		from := c.start[c.bandFrom(p)]
		kept += copy(c.segs[kept:], c.segs[from:int(from)+pt.kept])
	}
	return ChainResult{Clusters: c.segs[:kept], Pairs: pairs, Segments: len(c.segs)}
}

// bandFrom returns part p's first band for the sweep: the parts split
// the bands into contiguous ranges of about equal segment counts.
func (c *chainer) bandFrom(p int) int {
	if p == len(c.parts) {
		return c.nbands
	}
	want := int32(int64(c.start[c.nbands]) * int64(p) / int64(len(c.parts)))
	return sort.Search(c.nbands, func(b int) bool { return c.start[b] >= want })
}

// pairs calls visit with every capped seed pair whose i is in [lo, hi),
// in (i, d) order: occurrence i pairs with its next min(SuccPairs,
// remaining) same-seed successors j, on diagonal d = j - i.
func (c *chainer) pairs(lo, hi int, visit func(i, d int)) {
	next := c.x.next
	for i := lo; i < hi; i++ {
		j := next[i]
		for k := 0; j != 0 && k < c.succ; k++ {
			visit(i, int(j)-i)
			j = next[j]
		}
	}
}

// walk readies part p's diagonals for a walk and returns them: nothing
// seen but the seeds of the reach positions before the part's range,
// marked as earlier parts'. A pair whose i is lo or more lies on a
// diagonal below n-lo, so the part keeps no more; the first walk
// allocates them, on the part's own goroutine.
func (c *chainer) walk(p int) []diag {
	pt := &c.parts[p]
	if pt.diags == nil {
		pt.diags = make([]diag, len(c.x.next)-pt.lo)
	} else {
		clear(pt.diags)
	}
	c.pairs(max(pt.lo-c.reach, 0), pt.lo, func(i, d int) {
		if d < len(pt.diags) {
			pt.diags[d] = diag{last: int32(i + 1), seg: -1}
		}
	})
	return pt.diags
}

// count counts part p's pairs and the segments it opens in each band: a
// seed opens one unless it is within reach of the last seed on its
// diagonal.
func (c *chainer) count(p int) {
	opens := c.opens[p*c.nbands:][:c.nbands]
	diags := c.walk(p)
	pairs := 0
	c.pairs(c.parts[p].lo, c.parts[p].hi, func(i, d int) {
		pairs++
		if last := diags[d].last; last == 0 || i-int(last) >= c.reach {
			opens[d/c.width]++
		}
		diags[d].last = int32(i + 1)
	})
	c.parts[p].pairs = pairs
}

// place opens part p's segments at their band's next place and extends
// them there, then follows them past hi as far as their seeds reach.
func (c *chainer) place(p int) {
	n := len(c.x.next)
	next := c.opens[p*c.nbands:][:c.nbands]
	diags := c.walk(p)
	c.pairs(c.parts[p].lo, c.parts[p].hi, func(i, d int) {
		g := &diags[d]
		switch {
		case g.last == 0 || i-int(g.last) >= c.reach:
			k := &next[d/c.width]
			c.segs[*k] = Cluster{IStart: int32(i), IEnd: int32(i) + c.span,
				DMin: int32(d), DMax: int32(d), Covered: c.span, Seeds: 1}
			g.seg = *k
			*k++
		case g.seg >= 0:
			c.extend(g.seg, i)
		}
		g.last = int32(i + 1)
	})
	for i, stop := c.parts[p].hi, c.parts[p].hi+c.reach; i < min(stop, n); i++ {
		c.pairs(i, i+1, func(i, d int) {
			if g := &diags[d]; g.last != 0 && g.seg >= 0 && i-int(g.last) < c.reach {
				c.extend(g.seg, i)
				g.last, stop = int32(i+1), i+c.reach+1
			}
		})
	}
}

// extend adds the seed at i to segment segs[k].
func (c *chainer) extend(k int32, i int) {
	s := &c.segs[k]
	end := int32(i) + c.span // past s.IEnd: a diagonal's seeds ascend strictly
	s.Covered += min(end-s.IEnd, c.span)
	s.IEnd = end
	s.Seeds++
}

// sweep chains the segments of part p's bands into clusters, writing
// each over the segments it took from the front of the part's range.
//
// covEnd tracks the union sweep over i-ranges: band-mates on nearby
// diagonals overlap in i, and summing their Covered outright would
// double-count stacked segments — an inflated cluster could then crowd
// out genuinely better-supported ones under MaxCandidates and sneak past
// MinMatched. Each segment contributes at most the length of its
// not-yet-covered i-suffix, so Covered never exceeds IEnd-IStart
// (segments come in Start order within the band, making the one-pass
// sweep exact).
func (c *chainer) sweep(p int) {
	from, to := c.bandFrom(p), c.bandFrom(p+1)
	w := c.start[from]
	for b := from; b < to; b++ {
		var cl *Cluster
		var covEnd int32
		for _, s := range c.segs[c.start[b]:c.start[b+1]] {
			if cl == nil || int(s.IStart) > int(cl.IEnd)+c.gap {
				c.segs[w] = s
				cl, covEnd = &c.segs[w], s.IEnd
				w++
				continue
			}
			cl.IEnd = max(cl.IEnd, s.IEnd)
			cl.DMin = min(cl.DMin, s.DMin)
			cl.DMax = max(cl.DMax, s.DMax)
			if newLen := s.IEnd - max(s.IStart, covEnd); newLen > 0 {
				cl.Covered += min(s.Covered, newLen)
				covEnd = s.IEnd
			}
			cl.Seeds += s.Seeds
		}
	}
	c.parts[p].kept = int(w - c.start[from])
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
