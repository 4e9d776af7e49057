// Package faultfs wraps an atomicfile.FS with seeded, deterministic
// disk-fault injection — read-side bit flips and a finite ENOSPC byte
// budget — so the durable subsystems (job records, disk cache tier) can
// be tested against the failure modes they claim to survive, without
// real disk errors. Writes go through the inner FS's atomic WriteFile,
// which cannot tear. It is the filesystem analogue of
// internal/mpi/faultcomm.
//
// The wrapper is transparent when Config is zero. Determinism: every
// probabilistic decision draws from one PCG stream seeded by
// Config.Seed, in call order, so a single-threaded test makes
// identical decisions across runs.
package faultfs

import (
	"math/rand/v2"
	"os"
	"sync"
	"syscall"

	"repro/internal/atomicfile"
)

// ErrNoSpace is the injected disk-full error; errors.Is(err,
// syscall.ENOSPC) holds, matching what callers would see from a real
// full disk.
var ErrNoSpace = &os.PathError{Op: "write", Path: "(faultfs)", Err: syscall.ENOSPC}

// Config selects the faults to inject. The zero value injects nothing.
type Config struct {
	// Seed initialises the decision stream.
	Seed uint64
	// BitFlipProb makes ReadFile flip one random bit of the returned
	// data — at-rest corruption, what checksummed readers must catch.
	BitFlipProb float64
	// WriteBudget is the total number of bytes WriteFile may write
	// before every further write fails with ErrNoSpace. 0 = unlimited.
	// A write that does not fit uses up what remains, like a really
	// full disk.
	WriteBudget int64
}

// Stats counts the faults actually injected.
type Stats struct {
	BitFlips int64
	NoSpace  int64
}

// FS is a fault-injecting atomicfile.FS.
type FS struct {
	inner atomicfile.FS
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	stats   Stats
}

// Wrap decorates inner with the configured faults.
func Wrap(inner atomicfile.FS, cfg Config) *FS {
	return &FS{inner: inner, cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0xd15cfa17))}
}

// Stats returns the counts of injected faults so far.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FS) WriteFile(path string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	full := f.cfg.WriteBudget > 0 && f.written+int64(len(data)) > f.cfg.WriteBudget
	if full {
		f.written = f.cfg.WriteBudget
		f.stats.NoSpace++
	} else {
		f.written += int64(len(data))
	}
	f.mu.Unlock()
	if full {
		// The temp-file write fails before the rename: the destination
		// keeps its previous contents, as the atomic contract requires.
		return ErrNoSpace
	}
	return f.inner.WriteFile(path, data, perm)
}

func (f *FS) ReadFile(path string) ([]byte, error) {
	data, err := f.inner.ReadFile(path)
	if err != nil || len(data) == 0 {
		return data, err
	}
	f.mu.Lock()
	flip := f.rng.Float64() < f.cfg.BitFlipProb
	var pos int
	var bit byte
	if flip {
		pos = f.rng.IntN(len(data))
		bit = 1 << f.rng.IntN(8)
		f.stats.BitFlips++
	}
	f.mu.Unlock()
	if flip {
		data[pos] ^= bit
	}
	return data, err
}

func (f *FS) Rename(oldpath, newpath string) error         { return f.inner.Rename(oldpath, newpath) }
func (f *FS) Remove(path string) error                     { return f.inner.Remove(path) }
func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *FS) ReadDir(path string) ([]os.DirEntry, error)   { return f.inner.ReadDir(path) }
