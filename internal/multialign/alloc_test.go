package multialign

import (
	"testing"

	"repro/internal/align"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/triangle"
)

// Every tier of the group kernel must be allocation-free on a warm
// Scratch: lane buffers, the query profile, the scalar rung's row arena
// and the Group's bottom rows all live in the Scratch. This pins the
// zero-allocation hot-path contract for the SIMD-style level (DESIGN.md
// section 10). Four lanes always resolve to the scalar rung; 8, 16 and
// 32 resolve to the widest tier the host and REPRO_KERNEL_TIER allow.
func TestGroupKernelsZeroAllocsWarm(t *testing.T) {
	p := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	full := seq.SyntheticTitin(300, 9)
	s := full.Codes
	m := len(s)
	r0 := m / 2
	tri := triangle.New(m)
	for _, pr := range [][2]int{{20, 200}, {20, 201}, {r0, r0 + 40}, {r0 + 3, m - 1}} {
		tri.Set(pr[0], pr[1])
	}

	dna := align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}
	homo := make([]byte, 160) // its group at 40 flags on the byte rung

	sc := NewScratch()
	cases := []struct {
		name string
		f    func() error
	}{
		{"ScoreGroupAuto-4", func() error { _, err := sc.ScoreGroupAuto(p, s, r0, 4, tri); return err }},
		{"ScoreGroupAuto-8", func() error { _, err := sc.ScoreGroupAuto(p, s, r0, 8, tri); return err }},
		{"ScoreGroupAuto-16", func() error { _, err := sc.ScoreGroupAuto(p, s, r0, 16, tri); return err }},
		{"ScoreGroupAuto-32", func() error { _, err := sc.ScoreGroupAuto(p, s, r0, 32, tri); return err }},
		// a byte pass that flags and re-runs as two int16 halves
		{"ScoreGroupAuto-32-rerun", func() error { _, err := sc.ScoreGroupAuto(dna, homo, 40, 32, nil); return err }},
	}
	for _, c := range cases {
		if err := c.f(); err != nil { // warm the arena
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := c.f(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on warm scratch, want 0", c.name, allocs)
		}
	}
}

// A cold Scratch grows to the largest operand seen and never shrinks:
// after serving a long sequence, shorter and equal-length calls must
// stay allocation-free even as the group's base split moves.
func TestScratchMonotonicGrowth(t *testing.T) {
	p := align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}
	long := seq.SyntheticTitin(400, 1).Codes
	short := seq.SyntheticTitin(120, 1).Codes

	sc := NewScratch()
	if _, err := sc.ScoreGroupAuto(p, long, len(long)/2, 8, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(30, func() {
		for _, r0 := range []int{1, len(short) / 3, len(short) - 9} {
			if _, err := sc.ScoreGroupAuto(p, short, r0, 8, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("shorter operands on grown scratch: %.1f allocs/op, want 0", allocs)
	}
}
