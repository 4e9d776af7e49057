package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The sandbox's cores are shared, and how much of them a process gets
// moves by 10-30% over minutes. Ten serve-warm runs of the same code
// spread by 9-21% in rps and hit_p50_ms and by 16-37% in hit_p99_ms, while
// the same clients against a bare net/http handler in the same process
// moved with them: per quarter-second slice the two rates keep a ratio
// that ten runs spread by 2-4%. serve-warm therefore follows every slice
// of load with a slice of that reference and reads its figures against
// the reference's: a rate as measured x nominal / reference, a time as
// measured x reference / nominal.

// refFigures are the rate and the median latency of the reference over
// one slice.
type refFigures struct {
	RPS, P50 float64 // 1/s, ms
}

// refNominal is what the reference does on the quiet host (2 shared
// cores of a 2.1 GHz Xeon, C=2). It only anchors the units: a slice in
// which the reference read exactly this reports what it measured.
var refNominal = refFigures{RPS: 45000, P50: 0.037}

// scaled reads the figures of a slice of load against the reference's
// slice beside it. The median is held against the reference's median. The
// p99 is held against the reference's rate: its own p99 over a quarter
// second spread by 17% on a steady host, too coarse a yardstick, and its
// median does not follow the stalls that make the tail (under a
// neighbour taking a core in bursts, p99 x rate spread by 5% over ten
// runs, p99 / median by 17%).
func (ref refFigures) scaled(rps, p50, p99 float64) (float64, float64, float64) {
	return rps * refNominal.RPS / ref.RPS, p50 * refNominal.P50 / ref.P50, p99 * ref.RPS / refNominal.RPS
}

// Fixed sizes close to a serve-warm exchange (a 300-residue request, a
// ten-top report), so that the reference does the same socket work
// whatever the seed.
const (
	refRequestBytes  = 330
	refResponseBytes = 6000
)

// reference is the bare HTTP stack: a handler that drains the request
// and writes a constant body, and C closed-loop clients on their own
// connections. Nothing of the program under test runs in it.
type reference struct {
	hs   *http.Server
	cs   []*client
	url  string
	body []byte
	errs int
}

func startReference(c int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	resp := make([]byte, refResponseBytes)
	for i := range resp {
		resp[i] = 'x'
	}
	ref := &reference{
		url:  "http://" + ln.Addr().String() + "/",
		body: make([]byte, refRequestBytes),
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // a short body shows as a client error
			w.Header().Set("Content-Type", "application/json")
			w.Write(resp) //nolint:errcheck
		})},
	}
	for i := range ref.body {
		ref.body[i] = 'A'
	}
	for i := 0; i < c; i++ {
		ref.cs = append(ref.cs, &client{
			hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			ops: make([]op, 0, 1<<16), // room for a slice: see load
		})
	}
	go ref.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return ref, nil
}

func (ref *reference) stop() {
	for _, c := range ref.cs {
		c.close()
	}
	ref.hs.Close()
}

// slice runs the closed loop for d.
func (ref *reference) slice(d time.Duration) (refFigures, error) {
	var wg sync.WaitGroup
	bad := make([]int, len(ref.cs))
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range ref.cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			c.ops = c.ops[:0]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				status, body, err := c.postTo(ref.url, ref.body)
				if err != nil || status != http.StatusOK || len(body) != refResponseBytes {
					bad[i]++
					continue
				}
				c.ops = append(c.ops, op{MS: float64(time.Since(t0).Nanoseconds()) / 1e6})
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var ms sample
	for i, c := range ref.cs {
		ref.errs += bad[i]
		for _, o := range c.ops {
			ms = append(ms, o.MS)
		}
	}
	if len(ms) == 0 {
		return refFigures{}, fmt.Errorf("the reference completed no exchange")
	}
	return refFigures{RPS: float64(len(ms)) / elapsed, P50: percentile(ms, 50)}, nil
}
