// Command repromaster runs the master rank of a distributed repeats
// computation over TCP (Section 4.3 of the paper). It listens until the
// expected number of reproworker processes connect, farms out alignment
// tasks, performs acceptances and tracebacks, and prints the resulting
// top alignments. A lost worker fails the run: the master exits non-zero
// with an error naming the worker's rank.
//
//	repromaster -addr :7946 -slaves 2 -titin 2000 -tops 25
//	reproworker -addr host:7946 -threads 2   (on each worker machine)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/repeats"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/topalign"
)

func main() {
	var (
		addr     = flag.String("addr", ":7946", "listen address")
		slaves   = flag.Int("slaves", 1, "number of reproworker processes to wait for")
		inPath   = flag.String("in", "", "FASTA input (first record is analysed)")
		titinLen = flag.Int("titin", 0, "analyse a synthetic titin-like protein of this length")
		matrix   = flag.String("matrix", "BLOSUM62", "exchange matrix name")
		tops     = flag.Int("tops", 25, "number of top alignments")
		lanes    = flag.Int("lanes", 0, "matrices aligned per task: 0 = choose (default), 1, 4, 8, 16, or 32")
		spec     = flag.Bool("speculative", true, "speculative acceptance (paper mode)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "worker connection timeout")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace/{id} and pprof on this address (e.g. :9621; binds localhost unless a host is given; empty disables)")
	)
	flag.Parse()

	var (
		reg *obs.Registry
		col *trace.Collector
	)
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		col = trace.NewCollector(0, 0)
		dbg, err := obs.StartDebug(*debugAddr, reg, col)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "repromaster: debug endpoints on http://%s/{metrics,trace/{id},debug/pprof}\n", dbg.Addr)
	}

	exch, ok := scoring.ByName(*matrix)
	if !ok {
		fatal(fmt.Errorf("unknown matrix %q", *matrix))
	}

	var q *seq.Sequence
	switch {
	case *titinLen > 0:
		q = seq.SyntheticTitin(*titinLen, 1)
	case *inPath != "":
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		recs, err := seq.ReadFASTA(f, exch.Alphabet())
		f.Close()
		if err != nil {
			fatal(err)
		}
		q = recs[0]
	default:
		fatal(fmt.Errorf("need -in or -titin"))
	}

	fmt.Fprintf(os.Stderr, "repromaster: waiting for %d workers on %s...\n", *slaves, *addr)
	comm, err := mpi.ListenTCP(*addr, *slaves+1, *timeout)
	if err != nil {
		fatal(err)
	}
	defer comm.Close()
	fmt.Fprintf(os.Stderr, "repromaster: %d workers connected, analysing %s (%d residues)\n",
		*slaves, q.ID, q.Len())

	cfg := cluster.Config{
		Top: topalign.Config{
			Params:     align.Params{Exch: exch, Gap: scoring.DefaultGap(exch)},
			NumTops:    *tops,
			GroupLanes: *lanes,
			Counters:   &stats.Counters{},
		},
		Speculative: *spec,
		Metrics:     reg,
	}
	// With debug endpoints on, trace the run: the master records its own
	// and every shipped slave span into the collector, the trace is
	// served at /trace/{id}, and the critical path is printed at the end.
	var rec *trace.Recorder
	if col != nil {
		rec = col.Rec(trace.NewTraceID())
		cfg.Spans = rec
	}
	t0 := time.Now()
	res, err := cluster.RunMaster(comm, q.Codes, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "repromaster: %d top alignments in %.2fs\n",
		len(res.Tops), time.Since(t0).Seconds())
	fmt.Fprintf(os.Stderr, "repromaster: %s\n", res.Stats)
	if rec != nil {
		fmt.Fprintf(os.Stderr, "repromaster: trace %s\n", rec.TraceID())
		if spans, _, ok := col.Get(rec.TraceID()); ok {
			if rpt, err := trace.AnalyzeCriticalPath(spans); err == nil {
				for _, e := range rpt.Entries {
					fmt.Fprintf(os.Stderr, "repromaster:   %-10s %8.2fms %5.1f%%\n",
						e.Category, float64(e.NS)/1e6, 100*e.Frac)
				}
			}
		}
	}

	for _, top := range res.Tops {
		first, last := top.Pairs[0], top.Pairs[len(top.Pairs)-1]
		fmt.Printf("top %2d: score %6d split %5d  [%d-%d] ~ [%d-%d]\n",
			top.Index, top.Score, top.Split, first.I, last.I, first.J, last.J)
	}
	fams, err := repeats.Delineate(q.Len(), res.Tops, repeats.Options{})
	if err != nil {
		fatal(err)
	}
	for i, fam := range fams {
		fmt.Printf("family %d: %d copies, unit ~%d\n", i+1, len(fam.Copies), fam.UnitLen())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repromaster:", err)
	os.Exit(1)
}
