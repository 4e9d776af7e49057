// Package asmtest holds the checks the tests of the assembly kernels
// share. It is imported by test files only.
package asmtest

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// LoopHeadsAligned checks that the inner loops of an assembly file start
// on a 64-byte boundary: the instruction at the label after every
// `PCALIGN $64` must sit at an address divisible by 64 in the running
// test binary. file is the source's path suffix as the pc-line table
// names it, such as "align/row_amd64.s"; the source itself is read from
// the test's package directory. The file must hold at least want loop
// heads. Addresses come from the binary's pc-line table, the one go tool
// objdump prints beside each instruction, read with debug/gosym:
// objdump's decoder loses step on some VEX encodings and can skip the
// instruction looked for.
func LoopHeadsAligned(t *testing.T, file string, want int) {
	t.Helper()
	src, err := os.ReadFile(filepath.Base(file))
	if err != nil {
		t.Fatal(err)
	}
	var heads []int // line numbers of the first instruction after the label after each PCALIGN
	lines := strings.Split(string(src), "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) != "PCALIGN $64" {
			continue
		}
		j := i + 1
		for j < len(lines) && !strings.HasSuffix(strings.TrimSpace(lines[j]), ":") {
			j++ // to the label
		}
		for j++; j < len(lines); j++ {
			if f := strings.TrimSpace(lines[j]); f != "" && !strings.HasPrefix(f, "//") {
				heads = append(heads, j+1)
				break
			}
		}
	}
	if len(heads) < want {
		t.Fatalf("found %d PCALIGN loop heads in %s, want %d", len(heads), file, want)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elf.Open(exe)
	if err != nil {
		t.Skipf("not an ELF binary: %v", err)
	}
	defer bin.Close()
	pclntab, err := bin.Section(".gopclntab").Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(pclntab, bin.Section(".text").Addr))
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for name := range tab.Files {
		if strings.HasSuffix(name, "/"+file) {
			path = name
		}
	}
	for _, line := range heads {
		pc, fn, err := tab.LineToPC(path, line)
		if err != nil {
			t.Errorf("%s:%d, a loop head, has no address: %v", file, line, err)
			continue
		}
		if pc%64 != 0 {
			t.Errorf("%s:%d, the loop head in %s, is at %#x: not 64-byte aligned", file, line, fn.Name, pc)
		}
	}
}
