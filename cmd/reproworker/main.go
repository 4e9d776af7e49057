// Command reproworker runs one slave rank of a distributed repeats
// computation: it connects to a repromaster, receives the sequence and
// scoring configuration, and serves alignment tasks with the requested
// number of worker threads (one process per SMP node, one thread per
// CPU, as in the paper).
//
// Workers are started alongside the master, so the worker retries its
// dial at a fixed interval within -timeout. Once connected it serves
// until the master sends stop (exit 0) or the connection drops (exit 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7946", "repromaster address")
		threads   = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
		timeout   = flag.Duration("timeout", time.Minute, "how long to keep trying to reach the master")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and pprof on this address (binds localhost unless a host is given; empty disables)")
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

	comm, err := dialRetry(*addr, *timeout)
	if err != nil {
		fatal(err)
	}
	defer comm.Close()
	fmt.Fprintf(os.Stderr, "reproworker: connected as rank %d of %d, %d threads\n",
		comm.Rank(), comm.Size(), *threads)
	if err := cluster.RunSlaveOpts(comm, cluster.SlaveOptions{Threads: *threads, Metrics: reg}); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "reproworker: done")
}

// dialRetry dials the master every 200 ms until a connection succeeds
// or the budget elapses.
func dialRetry(addr string, budget time.Duration) (mpi.Comm, error) {
	deadline := time.Now().Add(budget)
	for {
		comm, err := mpi.DialTCP(addr, time.Second)
		if err == nil {
			return comm, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("master not reachable within %v: %w", budget, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproworker:", err)
	os.Exit(1)
}
