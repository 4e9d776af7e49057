package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/multialign"
)

// Env is the environment stamp carried by every result: -compare
// refuses two documents whose stamps differ in anything but the commit.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	KernelTier string `json:"kernel_tier"`
	AVX512     bool   `json:"avx512"`
	Clients    int    `json:"clients"`
	Commit     string `json:"commit"`
}

// clients is C of the issue: load-generating goroutines, connections
// and engine workers, min(nproc, 4).
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func stampEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		KernelTier: multialign.DetectedTier().String(),
		AVX512:     multialign.DetectedAVX512(),
		Clients:    clients(),
		Commit:     gitCommit(),
	}
}

// sameMachine reports whether two runs can be compared: everything but
// the commit must agree.
func (e Env) sameMachine(o Env) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

// tierDegraded marks exact-composed on a CPU without AVX2: it still
// runs, on narrower kernels, and -compare skips it.
func (e Env) tierDegraded() bool {
	return e.KernelTier != multialign.TierInt16x16.String()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit asks git for the commit of the repository the benchmark
// sits in; the driver's checkout is not a repository and reads "none".
func gitCommit() string {
	if _, err := os.Stat("../.git"); err != nil {
		return "none"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
