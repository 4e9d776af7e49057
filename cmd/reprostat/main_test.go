package main

import (
	"testing"

	"repro/internal/obs"
)

// The SPEC column is the interval's spec waste over the interval's
// alignments, not the totals', and "-" when nothing was aligned.
func TestSpecShare(t *testing.T) {
	snap := func(aligned, waste int64) *obs.Snapshot {
		return &obs.Snapshot{Counters: map[string]int64{"engine/alignments": aligned, "engine/spec_waste": waste}}
	}
	for _, tc := range []struct {
		name      string
		cur, prev *obs.Snapshot
		want      string
	}{
		{"first round: totals", snap(400, 10), nil, "2.5%"},
		{"interval only", snap(1400, 30), snap(400, 10), "2.0%"},
		{"no waste", snap(900, 10), snap(400, 10), "0.0%"},
		{"idle interval", snap(400, 10), snap(400, 10), "-"},
		{"nothing aligned yet", snap(0, 0), nil, "-"},
		{"no counters", &obs.Snapshot{}, nil, "-"},
	} {
		if got := specShare(tc.cur, tc.prev); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
