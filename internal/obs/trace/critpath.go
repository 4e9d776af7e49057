package trace

import (
	"fmt"
	"sort"
)

// Critical-path attribution: every nanosecond of the root span is
// attributed to exactly one category, by walking the span tree and
// splitting each span's wall time between its children (the covered
// portion, attributed recursively) and itself (the uncovered portion,
// attributed to the span's own category).
//
// Overlapping children — concurrent work under one parent — are swept
// in start order and each child is attributed only its exclusive
// segment, so concurrency cannot inflate the sum: the attribution of a
// span always totals its (clamped) duration, and the category sums
// always reconcile exactly with the root span's duration. Spans from
// other processes are clamped into their parent's window, so residual
// clock skew cannot produce negative or inflated attributions.

// Categories, in report order.
const (
	CatRouter    = "router"     // gateway routing: ring lookup, singleflight join
	CatQueue     = "queue-wait" // admission queue (serve)
	CatCache     = "cache"      // cache lookup / singleflight wait
	CatDispatch  = "dispatch"   // engine + cluster scheduling overhead
	CatComm      = "comm"       // wire time, row fetches, slave-side queueing
	CatKernel    = "kernel"     // alignment kernels + tracebacks
	CatSpecWaste = "spec-waste" // kernels computed against a stale replica
	CatServer    = "server"     // HTTP handling around the pipeline
	CatOther     = "other"      // anything unclassified
)

// categoryOrder fixes the report ordering.
var categoryOrder = []string{
	CatRouter, CatQueue, CatCache, CatDispatch, CatComm, CatKernel,
	CatSpecWaste, CatServer, CatOther,
}

// Category maps a span name to its breakdown category. The self-time of
// a span is attributed here; its children are attributed on their own.
func Category(name string) string {
	switch name {
	case "request":
		return CatServer
	case "router.route":
		// Router self-time: ring lookup, singleflight bookkeeping,
		// response fan-in. The upstream HTTP hop nests inside it.
		return CatRouter
	case "router.upstream":
		// Wire time router -> shard; the shard's own "request" span
		// (joined via traceparent) nests inside and claims its share.
		return CatComm
	case "queue.wait":
		return CatQueue
	case "cache.lookup", "cache.wait":
		return CatCache
	case "engine", "cluster.run":
		return CatDispatch
	case "cluster.dispatch", "slave.job", "slave.row_fetch":
		return CatComm
	case "slave.kernel", "engine.accept", "engine.accept.pass", "parallel.worker", "topalign.lookahead":
		return CatKernel
	case "slave.kernel.wasted":
		return CatSpecWaste
	}
	return CatOther
}

// Entry is one category's share of the root span's wall time.
type Entry struct {
	Category string  `json:"category"`
	NS       int64   `json:"ns"`
	Frac     float64 `json:"frac"` // of the root duration
}

// Report is the critical-path breakdown of one trace.
type Report struct {
	RootName string  `json:"root"`
	RootNS   int64   `json:"root_ns"` // the root span's duration
	SumNS    int64   `json:"sum_ns"`  // sum of all entries (== RootNS by construction)
	Entries  []Entry `json:"entries"`
	// Orphans counts spans not reachable from the chosen root (other
	// roots, or spans whose parent was dropped by the buffer bound);
	// their time is not attributed.
	Orphans int `json:"orphans,omitempty"`
}

// cpNode is the analyzer's tree node (raw span times, unlike Node).
type cpNode struct {
	sp       Span
	children []*cpNode
}

// AnalyzeCriticalPath attributes the root span's wall time across
// categories. The root is the longest span that has no parent in the
// batch (for a served request, the "request" span).
func AnalyzeCriticalPath(spans []Span) (*Report, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("trace: no spans to analyze")
	}
	nodes := make(map[SpanID]*cpNode, len(spans))
	all := make([]*cpNode, 0, len(spans))
	for _, sp := range spans {
		n := &cpNode{sp: sp}
		all = append(all, n)
		if !sp.ID.IsZero() {
			nodes[sp.ID] = n
		}
	}
	var roots []*cpNode
	for _, n := range all {
		if parent := nodes[n.sp.Parent]; parent != nil && parent != n {
			parent.children = append(parent.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	root := roots[0]
	for _, n := range roots[1:] {
		if n.sp.Dur > root.sp.Dur {
			root = n
		}
	}

	sums := map[string]int64{}
	attribute(root, root.sp.Start, root.sp.End(), sums)

	rep := &Report{
		RootName: root.sp.Name,
		RootNS:   root.sp.Dur,
		Orphans:  countOrphans(roots, root),
	}
	for _, cat := range categoryOrder {
		ns := sums[cat]
		if ns == 0 {
			continue
		}
		e := Entry{Category: cat, NS: ns}
		if rep.RootNS > 0 {
			e.Frac = float64(ns) / float64(rep.RootNS)
		}
		rep.Entries = append(rep.Entries, e)
		rep.SumNS += ns
	}
	return rep, nil
}

// attribute splits node's clamped window [lo, hi) between its children
// (exclusive segments, swept in start order) and its own category, and
// returns the total attributed (== hi-lo after clamping).
func attribute(n *cpNode, lo, hi int64, sums map[string]int64) int64 {
	start := n.sp.Start
	if start < lo {
		start = lo
	}
	end := n.sp.End()
	if end > hi {
		end = hi
	}
	if end <= start {
		return 0
	}
	sort.SliceStable(n.children, func(i, j int) bool {
		return n.children[i].sp.Start < n.children[j].sp.Start
	})
	cursor := start
	var covered int64
	for _, c := range n.children {
		cs := c.sp.Start
		if cs < cursor {
			cs = cursor
		}
		ce := c.sp.End()
		if ce > end {
			ce = end
		}
		if ce <= cs {
			continue // fully shadowed by an earlier sibling (or skewed out)
		}
		covered += attribute(c, cs, ce, sums)
		cursor = ce
	}
	sums[Category(n.sp.Name)] += (end - start) - covered
	return end - start
}

// countOrphans counts spans unreachable from root.
func countOrphans(roots []*cpNode, root *cpNode) int {
	n := 0
	for _, r := range roots {
		if r != root {
			n += 1 + countDesc(r)
		}
	}
	return n
}

func countDesc(n *cpNode) int {
	c := 0
	for _, ch := range n.children {
		c += 1 + countDesc(ch)
	}
	return c
}
