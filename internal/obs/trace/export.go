package trace

import "sort"

// SpanJSON is the stable JSON rendering of one span, used by the
// GET /trace/{id} endpoints and consumed by cmd/reprotrace.
type SpanJSON struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Rank    int32  `json:"rank"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Arg     int64  `json:"arg,omitempty"`
}

// ToJSON converts spans to their JSON form.
func ToJSON(spans []Span) []SpanJSON {
	out := make([]SpanJSON, len(spans))
	for i, sp := range spans {
		out[i] = SpanJSON{
			ID: sp.ID.String(), Name: sp.Name, Rank: sp.Rank,
			StartNS: sp.Start, DurNS: sp.Dur, Arg: sp.Arg,
		}
		if !sp.Parent.IsZero() {
			out[i].Parent = sp.Parent.String()
		}
	}
	return out
}

// FromJSON converts the JSON form back to spans (IDs that fail to parse
// become zero, which the tree builder treats as orphaned-to-root).
func FromJSON(spans []SpanJSON) []Span {
	out := make([]Span, len(spans))
	for i, sj := range spans {
		sp := Span{Name: sj.Name, Rank: sj.Rank, Start: sj.StartNS, Dur: sj.DurNS, Arg: sj.Arg}
		sp.ID, _ = ParseSpanID(sj.ID)
		if sj.Parent != "" {
			sp.Parent, _ = ParseSpanID(sj.Parent)
		}
		out[i] = sp
	}
	return out
}

// Node is one span in the assembled trace tree. Start is relative to
// the earliest root span, so a tree is readable without knowing the
// collector epoch.
type Node struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	Rank     int32   `json:"rank"`
	StartNS  int64   `json:"start_ns"`
	DurNS    int64   `json:"dur_ns"`
	Arg      int64   `json:"arg,omitempty"`
	Children []*Node `json:"children,omitempty"`
}

// BuildTree links spans into parent/child trees. Spans whose parent is
// absent from the batch (including propagated parents from an upstream
// process) become roots. Roots and children are ordered by start time.
func BuildTree(spans []Span) []*Node {
	nodes := make(map[SpanID]*Node, len(spans))
	order := make([]*Node, 0, len(spans))
	starts := make(map[*Node]int64, len(spans))
	for _, sp := range spans {
		n := &Node{ID: sp.ID.String(), Name: sp.Name, Rank: sp.Rank,
			StartNS: sp.Start, DurNS: sp.Dur, Arg: sp.Arg}
		if !sp.ID.IsZero() {
			nodes[sp.ID] = n
		}
		order = append(order, n)
		starts[n] = sp.Start
	}
	var roots []*Node
	for i, sp := range spans {
		n := order[i]
		if parent := nodes[sp.Parent]; parent != nil && parent != n {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var base int64
	for i, n := range roots {
		if i == 0 || starts[n] < base {
			base = starts[n]
		}
	}
	var rebase func(ns []*Node)
	rebase = func(ns []*Node) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartNS < ns[j].StartNS })
		for _, n := range ns {
			n.StartNS -= base
			rebase(n.Children)
		}
	}
	rebase(roots)
	return roots
}
