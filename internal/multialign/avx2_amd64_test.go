package multialign

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The assembly flag must flip exactly at satLimit16: a cell value of
// satLimit16-1 is clean, satLimit16 sets the lane's sticky bits.
func TestRowAVX16FlagBoundary(t *testing.T) {
	if DetectedTier() < TierInt32x8 {
		t.Skip("needs AVX2")
	}
	for _, tc := range []struct {
		e        int16
		wantFlag bool
	}{
		{9, false}, // 31990 + 9 = satLimit16-1
		{10, true}, // 31990 + 10 = satLimit16
	} {
		prev := make([]int16, 16)
		cur := make([]int16, 16)
		maxY := make([]int16, 16)
		mx := make([]int16, 16)
		for i := range prev {
			prev[i] = satLimit16 - 10
			maxY[i] = negInf16
			mx[i] = negInf16
		}
		ex := []int16{tc.e}
		var sat uint32
		rowAVX16(&prev[0], &cur[0], &maxY[0], &ex[0], 1, 5, 1, &mx[0], &sat)
		if got := sat != 0; got != tc.wantFlag {
			t.Errorf("e=%d: sat=%#x, want flag %v", tc.e, sat, tc.wantFlag)
		}
		if want := int16(satLimit16 - 10 + int(tc.e)); cur[0] != want {
			t.Errorf("e=%d: cur[0]=%d, want %d", tc.e, cur[0], want)
		}
	}
}

// A span of n=0 columns must be a no-op for all three row kernels: no
// stores, no flag, no crash. The drivers pass whole rows (n >= 1) since
// masking became a post-pass; the assembly's contract is kept anyway.
func TestRowKernelsZeroColumns(t *testing.T) {
	if DetectedTier() < TierInt32x8 {
		t.Skip("needs AVX2")
	}
	prev16 := make([]int16, 16)
	cur16 := make([]int16, 16)
	maxY16 := make([]int16, 16)
	mx16 := make([]int16, 16)
	ex16 := []int16{7}
	for i := range cur16 {
		cur16[i] = 42
		maxY16[i] = 43
	}
	var sat uint32
	rowAVX16(&prev16[0], &cur16[0], &maxY16[0], &ex16[0], 0, 5, 1, &mx16[0], &sat)
	rowAVX16Fast(&prev16[0], &cur16[0], &maxY16[0], &ex16[0], 0, 5, 1, &mx16[0])
	if sat != 0 {
		t.Errorf("n=0 set the saturation flag: %#x", sat)
	}
	for i := range cur16 {
		if cur16[i] != 42 || maxY16[i] != 43 {
			t.Fatalf("n=0 wrote to lane buffers at %d: cur=%d maxY=%d", i, cur16[i], maxY16[i])
		}
	}
	prev32 := make([]int32, 8)
	cur32 := make([]int32, 8)
	maxY32 := make([]int32, 8)
	mx32 := make([]int32, 8)
	ex32 := []int32{7}
	for i := range cur32 {
		cur32[i] = 42
	}
	rowAVX8(&prev32[0], &cur32[0], &maxY32[0], &ex32[0], 0, 5, 1, &mx32[0])
	for i := range cur32 {
		if cur32[i] != 42 {
			t.Fatalf("rowAVX8 n=0 wrote cur[%d]=%d", i, cur32[i])
		}
	}
}

// The pair kernels carry dY and vY out as well as in, so a sweep may
// stop after any column and resume: one sweep over group columns 1..n
// must leave a, cur, maxY, both gap carries, d, v and the flag exactly as
// two sweeps over columns [1, k] and [k+1, n] do, for every k — inside
// the border prefix (k <= 15, where the second sweep starts masked too),
// on its edge and past it — with row y kept in cur and without. The
// states are random row values, low and near the saturation threshold.
// Every sweep must leave the border cells of both rows zero.
func TestPairKernelSplitInvariance(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("needs AVX2")
	}
	const n, open, ext = 37, 11, 1
	type state struct {
		a, cur, maxY  []int16 // interleaved, 16 lanes per column 0..n
		mx, mx1, d, v [16]int16
		sat           uint32
	}
	rng := rand.New(rand.NewSource(5))
	for _, base := range []int{0, satLimit16 - 400} {
		val := func() int16 { return int16(base + rng.Intn(400)) }
		var in state
		in.a, in.cur, in.maxY = make([]int16, 16*(n+1)), make([]int16, 16*(n+1)), make([]int16, 16*(n+1))
		exY, exY1 := make([]int16, n+1), make([]int16, n+1)
		for i := range in.a {
			in.a[i], in.cur[i], in.maxY[i] = val(), val(), val()-int16(rng.Intn(50))
		}
		for c := range exY {
			exY[c], exY1[c] = int16(rng.Intn(31)-15), int16(rng.Intn(31)-15)
		}
		for i := range in.mx {
			in.mx[i], in.mx1[i], in.d[i], in.v[i] = val()-30, val()-30, val(), val()
		}
		for _, kern := range []struct {
			name string
			call func(st *state, keep bool, c0, cols int)
		}{
			{"rowAVX16Pair", func(st *state, keep bool, c0, cols int) {
				var out *int16
				if keep {
					out = &st.cur[16*c0]
				}
				rowAVX16Pair(&st.a[16*c0], out, &st.maxY[16*c0], &exY[c0], &exY1[c0], c0, cols, open, ext,
					&st.mx[0], &st.mx1[0], &st.d[0], &st.v[0], &st.sat)
			}},
			{"rowAVX16PairFast", func(st *state, keep bool, c0, cols int) {
				var out *int16
				if keep {
					out = &st.cur[16*c0]
				}
				rowAVX16PairFast(&st.a[16*c0], out, &st.maxY[16*c0], &exY[c0], &exY1[c0], c0, cols, open, ext,
					&st.mx[0], &st.mx1[0], &st.d[0], &st.v[0])
			}},
		} {
			for _, keep := range []bool{false, true} {
				where := fmt.Sprintf("%s base=%d keep=%v", kern.name, base, keep)
				clone := func() state {
					st := in
					st.a, st.cur, st.maxY = slices.Clone(in.a), slices.Clone(in.cur), slices.Clone(in.maxY)
					return st
				}
				whole := clone()
				kern.call(&whole, keep, 1, n)
				if kern.name == "rowAVX16Pair" && (whole.sat != 0) != (base > 0) {
					t.Fatalf("%s: sat=%#x; only the high state should flag", where, whole.sat)
				}
				if keep == slices.Equal(whole.cur, in.cur) {
					t.Fatalf("%s: cur written %v", where, !keep)
				}
				for c := 1; c < 16; c++ {
					for k := c; k < 16; k++ {
						if whole.a[16*c+k] != 0 || keep && whole.cur[16*c+k] != 0 {
							t.Fatalf("%s: border cell lane %d column %d not zero", where, k, c)
						}
					}
				}
				for k := 1; k < n; k++ {
					got := clone()
					kern.call(&got, keep, 1, k)
					kern.call(&got, keep, k+1, n-k)
					if !slices.Equal(got.a, whole.a) || !slices.Equal(got.cur, whole.cur) || !slices.Equal(got.maxY, whole.maxY) ||
						got.mx != whole.mx || got.mx1 != whole.mx1 || got.d != whole.d || got.v != whole.v ||
						got.sat != whole.sat {
						t.Fatalf("%s: split after column %d differs from one sweep", where, k)
					}
				}
			}
		}
	}
}

// BenchmarkRowCall is what one call of each assembly row kernel costs
// at 1 and at 16 columns: the fixed part of a row, which is most of a
// short row. A legacy-SSE move into an X register after the assembly
// prologue's first 256-bit instruction makes it ~180 ns on the bench
// host instead of ~4.
func BenchmarkRowCall(b *testing.B) {
	if DetectedTier() < TierInt32x8 {
		b.Skip("needs AVX2")
	}
	const cols = 17 // one column block in front of the span
	prev32, cur32, maxY32 := make([]int32, 8*cols), make([]int32, 8*cols), make([]int32, 8*cols)
	prev16, cur16, maxY16 := make([]int16, 16*cols), make([]int16, 16*cols), make([]int16, 16*cols)
	ex32, ex16, ex16b := make([]int32, cols), make([]int16, cols), make([]int16, cols)
	var mx32 [8]int32
	var mx, mx1, d, v [16]int16
	var sat uint32
	for _, n := range []int{1, 16} {
		for _, k := range []struct {
			name string
			call func()
		}{
			{"rowAVX8", func() { rowAVX8(&prev32[0], &cur32[8], &maxY32[8], &ex32[1], n, 11, 1, &mx32[0]) }},
			{"rowAVX16", func() { rowAVX16(&prev16[0], &cur16[16], &maxY16[16], &ex16[1], n, 11, 1, &mx[0], &sat) }},
			{"rowAVX16Fast", func() { rowAVX16Fast(&prev16[0], &cur16[16], &maxY16[16], &ex16[1], n, 11, 1, &mx[0]) }},
			{"rowAVX16Pair", func() {
				rowAVX16Pair(&prev16[16], nil, &maxY16[16], &ex16[1], &ex16b[1], 16, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0], &sat)
			}},
			{"rowAVX16PairFast", func() {
				rowAVX16PairFast(&prev16[16], nil, &maxY16[16], &ex16[1], &ex16b[1], 16, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0])
			}},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.call()
				}
			})
		}
	}
}
