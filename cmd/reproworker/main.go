// Command reproworker runs one slave rank of a distributed repeats
// computation: it connects to a repromaster, receives the sequence and
// scoring configuration, and serves alignment tasks with the requested
// number of worker threads (one process per SMP node, one thread per
// CPU, as in the paper).
//
// The worker is crash-tolerant on both ends: it dials the master with
// exponential backoff plus jitter (workers are typically launched
// before or alongside the master), and if the master connection drops
// mid-run it reconnects and rejoins under a fresh rank instead of
// exiting, until the retry budget is exhausted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7946", "repromaster address")
		threads    = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
		timeout    = flag.Duration("timeout", time.Minute, "retry budget for (re)connecting to the master")
		rejoin     = flag.Bool("rejoin", true, "reconnect and rejoin after losing the master mid-run")
		hbInterval = flag.Duration("hb-interval", 2*time.Second, "heartbeat interval (negative disables)")
		hbTimeout  = flag.Duration("hb-timeout", 8*time.Second, "declare the master dead after this much silence")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and pprof on this address (binds localhost unless a host is given; empty disables)")
	)
	flag.Parse()

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.StartDebug(*debugAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "reproworker: debug endpoints on http://%s/{metrics,debug/pprof}\n", dbg.Addr)
	}

	opts := mpi.DefaultTCPOptions()
	opts.HeartbeatInterval = *hbInterval
	opts.HeartbeatTimeout = *hbTimeout
	opts.Metrics = reg

	for {
		comm, err := dialRetry(*addr, *timeout, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "reproworker: connected as rank %d of %d, %d threads\n",
			comm.Rank(), comm.Size(), *threads)
		err = cluster.RunSlaveOpts(comm, cluster.SlaveOptions{Threads: *threads, Metrics: reg})
		comm.Close()
		switch {
		case err == nil:
			fmt.Fprintln(os.Stderr, "reproworker: done")
			return
		case errors.Is(err, cluster.ErrMasterDown) && *rejoin:
			fmt.Fprintln(os.Stderr, "reproworker: master connection lost; attempting to rejoin")
		default:
			fatal(err)
		}
	}
}

// dialRetry dials the master with exponential backoff plus full jitter
// until a connection succeeds or the budget elapses; the jitter keeps a
// fleet of restarting workers from stampeding the master in lockstep.
func dialRetry(addr string, budget time.Duration, opts mpi.TCPOptions) (mpi.Comm, error) {
	deadline := time.Now().Add(budget)
	backoff := 200 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		attempt := min(maxBackoff, time.Until(deadline))
		if attempt <= 0 {
			attempt = time.Second
		}
		comm, err := mpi.DialTCPOpts(addr, attempt, opts)
		if err == nil {
			return comm, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("retry budget exhausted: %w", err)
		}
		time.Sleep(backoff/2 + rand.N(backoff/2))
		backoff = min(2*backoff, maxBackoff)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproworker:", err)
	os.Exit(1)
}
