package faultfs

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/atomicfile"
)

func TestTransparentWhenZero(t *testing.T) {
	dir := t.TempDir()
	fsys := Wrap(atomicfile.OS(), Config{})
	path := filepath.Join(dir, "a")
	if err := fsys.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if s := fsys.Stats(); s != (Stats{}) {
		t.Fatalf("zero config injected faults: %+v", s)
	}
}

func TestBitFlipCorruptsExactlyOneBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	orig := bytes.Repeat([]byte{0x55}, 64)
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := Wrap(atomicfile.OS(), Config{Seed: 3, BitFlipProb: 1})
	got, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
	// The file itself is untouched: corruption is injected on read.
	onDisk, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk, orig) {
		t.Fatal("bit flip mutated the underlying file")
	}
}

func TestWriteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	fsys := Wrap(atomicfile.OS(), Config{WriteBudget: 10})
	// First write fits.
	if err := fsys.WriteFile(filepath.Join(dir, "a"), []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Second exceeds the budget: ENOSPC, and the atomic contract means
	// the destination does not exist afterwards.
	err := fsys.WriteFile(filepath.Join(dir, "b"), []byte("1234567890"), 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(serr) {
		t.Fatal("failed atomic write left a destination file")
	}
	if s := fsys.Stats(); s.NoSpace != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSeedDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x55}, 32), 0o644); err != nil {
		t.Fatal(err)
	}
	// run records, per read, where the flip landed (-1 for none).
	run := func() (flips []int) {
		fsys := Wrap(atomicfile.OS(), Config{Seed: 42, BitFlipProb: 0.5})
		for i := 0; i < 20; i++ {
			data, err := fsys.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := -1
			for j, b := range data {
				if b != 0x55 {
					at = 8*j + bits.TrailingZeros8(b^0x55)
				}
			}
			flips = append(flips, at)
		}
		return flips
	}
	a, b := run(), run()
	if !slices.ContainsFunc(a, func(at int) bool { return at >= 0 }) {
		t.Fatal("no bit flips at prob 0.5 over 20 reads")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("runs diverged: %v vs %v", a, b)
	}
}

func TestPassthroughOps(t *testing.T) {
	dir := t.TempDir()
	fs := Wrap(atomicfile.OS(), Config{})
	p := filepath.Join(dir, "f")
	if err := fs.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "f" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fs.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file survived Remove: %v", err)
	}
	if _, err := fs.ReadFile(p); err == nil {
		t.Fatal("read of removed file succeeded")
	}
}
