package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro"
	"repro/internal/obs/attrib"
	"repro/internal/obs/trace"
	"repro/internal/seq"
)

// A windowed run bills and traces its lookahead helpers. Under
// GOMAXPROCS 2 one helper computes first alignments beside the loop:
// the trace holds its span, and the report's thread CPU is about what
// the same analysis bills under GOMAXPROCS 1, where the loop does it all —
// without the helper's stopwatch it reads roughly two thirds of that on
// this input. Thread CPU does not depend on how the host shares its
// cores, so the comparison holds on a busy host too; the collector is
// held off for it.
func TestWindowedRunBillsItsHelpers(t *testing.T) {
	if !attrib.ThreadCPUSupported() {
		t.Skip("no per-thread CPU clock on this platform")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := seq.Tandem(seq.TandemSpec{UnitLen: 100, Copies: 40, FlankLen: 100, Seed: 1,
		Profile: seq.MutationProfile{SubstRate: 0.2, IndelRate: 0.02, IndelExt: 0.5}}).String()
	run := func(procs int) int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		col := trace.NewCollector(0, 0)
		id := trace.NewTraceID()
		rep, err := repro.Analyze("x", s, repro.Options{Preset: "balanced", NumTops: 1, Spans: col.Rec(id)})
		if err != nil {
			t.Fatal(err)
		}
		spans, _, _ := col.Get(id)
		helpers := 0
		for _, sp := range spans {
			if sp.Name == "topalign.lookahead" {
				helpers++
			}
		}
		if helpers != procs-1 {
			t.Fatalf("%d topalign.lookahead spans under GOMAXPROCS %d, want %d", helpers, procs, procs-1)
		}
		return rep.Usage.CPUNanos
	}
	var alone, paired int64
	for i := 0; i < 3; i++ {
		alone += run(1)
		paired += run(2)
	}
	if paired < alone*3/4 {
		t.Errorf("Usage.CPUNanos summed %d ns under GOMAXPROCS 2 against %d alone: the helper's CPU is missing", paired, alone)
	}
}
