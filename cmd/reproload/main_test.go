package main

import (
	"net/http"
	"testing"
	"time"

	"repro"
	"repro/internal/seq"
)

// TestLongPhaseAgainstSelf drives the real helpers end to end: an
// in-process server and the long-input phase (preset reaches the
// engine, response verified against a local run, repeat served from
// the cache).
func TestLongPhaseAgainstSelf(t *testing.T) {
	addr, shutdown, err := startSelf(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	long := runLongPhase(&http.Client{}, "http://"+addr, 2000, "fast", 3, 1, true)
	if !long.Verified || long.RepeatCache != "hit" || long.SeqLen != 2000 {
		t.Errorf("long-input phase = %+v", long)
	}
}

func TestSummarise(t *testing.T) {
	if p50, p99 := summarise([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); p50 != 5 || p99 != 10 {
		t.Errorf("p50, p99 = %v, %v, want 5, 10", p50, p99)
	}
	if p50, p99 := summarise(nil); p50 != 0 || p99 != 0 {
		t.Errorf("empty p50, p99 = %v, %v", p50, p99)
	}
}

func TestSameAnalysis(t *testing.T) {
	q := seq.SyntheticTitin(100, 3)
	rep, err := repro.Analyze(q.ID, q.String(), repro.Options{NumTops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnalysis(rep, rep) {
		t.Error("report does not match itself")
	}
	if sameAnalysis(rep, nil) {
		t.Error("nil report matched")
	}
	other := *rep
	other.SeqLen++
	if sameAnalysis(rep, &other) {
		t.Error("different SeqLen matched")
	}
}

func TestRetryAfterHeader(t *testing.T) {
	resp := &http.Response{Header: http.Header{}}
	if d := retryAfter(resp); d != 100*time.Millisecond {
		t.Errorf("default backoff = %v", d)
	}
	resp.Header.Set("Retry-After", "7")
	if d := retryAfter(resp); d != 250*time.Millisecond {
		t.Errorf("capped backoff = %v", d)
	}
}
