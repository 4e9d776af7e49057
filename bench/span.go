package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed layer call: name, start, end, the span that caused
// it and the trace (one repetition or one request) it belongs to.
// Times are offsets from the recorder's epoch.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index into the recorder's spans, -1 for a root
	Trace  int
}

// recorder keeps spans in memory until the workload ends. A nil
// recorder records nothing, which is the untraced pass. One goroutine
// owns a recorder; concurrent clients each bring their own and the
// recorders are merged afterwards.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// start opens a span and returns its id for end and for children.
func (r *recorder) start(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), End: -1, Parent: parent, Trace: trace})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
}

// merge appends o's spans, re-basing their parent links.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	shift := o.epoch.Sub(r.epoch)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
}

// wellFormed checks the span trees: every span closed, every child
// inside its parent and in its parent's trace.
func wellFormed(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q not closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q names a later parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] outside parent %q [%v,%v]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Trace != p.Trace {
			return fmt.Errorf("span %d %q in trace %d, parent in trace %d", i, s.Name, s.Trace, p.Trace)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the package name in front of
// the first dot ("seedindex.Chain" -> "seedindex").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelf sums self time per layer and the duration of all roots; the
// two totals are equal when sibling spans do not overlap.
func layerSelf(spans []span) (perLayer map[string]time.Duration, roots time.Duration) {
	perLayer = make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		perLayer[layerOf(spans[i].Name)] += d
		if spans[i].Parent < 0 {
			roots += spans[i].End - spans[i].Start
		}
	}
	return perLayer, roots
}

// maxTraceEvents bounds the Chrome trace file: a serve workload records
// a few hundred thousand spans, and a viewer needs a few thousand.
const maxTraceEvents = 20000

// flushChrome writes the spans as Chrome trace_event JSON (loadable in
// Perfetto) to out/trace-<workload>.json.
func flushChrome(workload string, spans []span) (string, error) {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	n := len(spans)
	if n > maxTraceEvents {
		n = maxTraceEvents
	}
	events := make([]event, 0, n)
	for _, s := range spans[:n] {
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Trace,
		})
	}
	doc := map[string]any{
		"traceEvents":   events,
		"spansRecorded": len(spans),
		"spansWritten":  n,
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// printLayerTable prints self time per layer beside the root total.
func printLayerTable(spans []span) {
	perLayer, roots := layerSelf(spans)
	names := make([]string, 0, len(perLayer))
	for n := range perLayer {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return perLayer[names[a]] > perLayer[names[b]] })
	var sum time.Duration
	fmt.Printf("  self time per layer (%d spans):\n", len(spans))
	for _, n := range names {
		sum += perLayer[n]
		fmt.Printf("    %-12s %10.4f s  %5.1f%%\n", n, perLayer[n].Seconds(), 100*ratio(perLayer[n].Seconds(), roots.Seconds()))
	}
	fmt.Printf("    %-12s %10.4f s  (roots %.4f s)\n", "sum", sum.Seconds(), roots.Seconds())
}
