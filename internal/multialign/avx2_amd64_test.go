package multialign

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/align"
	"repro/internal/asmtest"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// The assembly flag must flip exactly at satLimit16: a cell value of
// satLimit16-1 is clean, satLimit16 sets the lane's sticky bits. The
// cell is row y of a rowAVX16Pair sweep at column 16, the first past the
// border: d carries row y-1 of column 15, row y+1 adds -1.
func TestRowAVX16FlagBoundary(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("needs AVX2")
	}
	for _, tc := range []struct {
		e        int16
		wantFlag bool
	}{
		{9, false}, // 31990 + 9 = satLimit16-1
		{10, true}, // 31990 + 10 = satLimit16
	} {
		var a, cur, maxY, mx, mx1, d, v [16]int16
		for i := range d {
			d[i] = satLimit16 - 10
			maxY[i], mx[i], mx1[i] = negInf16, negInf16, negInf16
		}
		ex, ex1 := []int16{tc.e}, []int16{-1}
		var sat uint32
		rowAVX16Pair(&a[0], &cur[0], &maxY[0], &ex[0], &ex1[0], 16, 1, 5, 1, &mx[0], &mx1[0], &d[0], &v[0], &sat)
		if got := sat != 0; got != tc.wantFlag {
			t.Errorf("e=%d: sat=%#x, want flag %v", tc.e, sat, tc.wantFlag)
		}
		if want := int16(satLimit16 - 10 + int(tc.e)); cur[15] != want {
			t.Errorf("e=%d: cur=%d, want %d", tc.e, cur[15], want)
		}
	}
}

// byteModels are the scoring models the byte kernels' unit tests run
// under: their biases, and so their flag levels 255-bias, differ.
var byteModels = []struct {
	name string
	p    align.Params
}{
	{"BLOSUM62", protein},
	{"PAM250", align.Params{Exch: scoring.PAM250, Gap: scoring.DefaultProteinGap}},
	{"dna-unit", align.Params{Exch: scoring.DNAUnit, Gap: scoring.Gap{Open: 8, Ext: 2}}},
}

// The byte kernels' flag must flip exactly at the clip level 255-bias:
// a cell one below it is exact and clean, a cell whose true value
// reaches it reads exactly the level and flags. The cell is a diagonal
// plus the model's largest exchange value, in row y of a rowU8Pair sweep
// at column 32, the first past the border: d carries row y-1 of column
// 31, row y+1 adds the smallest value.
func TestRowU8FlagBoundary(t *testing.T) {
	if align.DetectedTier() < TierU8x32 {
		t.Skip("needs AVX2")
	}
	for _, bm := range byteModels {
		bias := uint8(-bm.p.Exch.MinScore())
		level := 255 - int(bias)
		e := int(bm.p.Exch.MaxScore())
		open, ext := uint8(bm.p.Gap.Open), uint8(bm.p.Gap.Ext)
		for _, tc := range []struct {
			diag     int
			wantFlag bool
		}{
			{level - e - 1, false},
			{level - e, true},
			{level - e + 1, true}, // clipped: reads the level too
		} {
			where := fmt.Sprintf("%s diag=%d+%d (level %d)", bm.name, tc.diag, e, level)
			want := uint8(min(tc.diag+e, level))
			ex := []uint8{uint8(e) + bias}
			ex1 := []uint8{0}
			var a, cur, maxY, mx, mx1, d, v [32]uint8
			for i := range d {
				d[i] = uint8(tc.diag)
			}
			var flag uint32
			rowU8Pair(&a[0], &cur[0], &maxY[0], &ex[0], &ex1[0], 32, 1, open, ext, bias, &mx[0], &mx1[0], &d[0], &v[0], &flag)
			if (flag != 0) != tc.wantFlag || cur[31] != want {
				t.Errorf("%s rowU8Pair: flag=%#x cell=%d, want flag %v cell %d", where, flag, cur[31], tc.wantFlag, want)
			}
		}
	}
}

// A group of odd height computes its last row yMax in a pair sweep whose
// second row is junk: exchange values at the model's lowest, so it can
// raise no flag that row yMax did not. Each case is a group whose cells
// peak exactly one below the flag level in row yMax, a residue b then a
// run of one residue a, so row y peaks at max(S(b,a), 0) + (y-1)*S(a,a);
// the real row yMax+1, residue s[yMax], would reach the level. The group
// must run clean and exact. Without b the run peaks at the level in row
// yMax itself: the group re-runs, and a byte pass reports yMax rows
// computed — Wasted is memberCells at yMax.
func TestOddLastRowJunkRow(t *testing.T) {
	// An int16 model with few rows to the level: 121 + 126*253 = 31999.
	table := make([][]int16, seq.DNA.Len())
	for i := range table {
		table[i] = make([]int16, seq.DNA.Len())
		for j := range table[i] {
			table[i][j] = -1
		}
	}
	table[0][0], table[0][1], table[1][0] = 253, 121, 121
	steep, err := scoring.NewMatrix("steep", seq.DNA, table)
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		name  string
		p     align.Params
		tier  Tier
		lanes int
		level int
	}
	models := []model{{"int16-unproven", align.Params{Exch: steep, Gap: scoring.PaperGap}, TierInt16x16, 16, satLimit16}}
	for _, bm := range byteModels {
		models = append(models, model{bm.name, bm.p, TierU8x32, 32, 255 + int(bm.p.Exch.MinScore())})
	}
	sc := NewScratch()
	for _, md := range models {
		t.Run(md.name, func(t *testing.T) {
			if TierFor(md.p, 0, md.lanes) != md.tier {
				t.Skipf("%s not active", md.tier)
			}
			// the first residues a, b and odd height yMax with
			// max(S(b,a), 0) + (yMax-1)*S(a,a) = level-1
			ex := md.p.Exch
			var a, b byte
			yMax := 0
			for ai := 0; ai < ex.Alphabet().Len() && yMax == 0; ai++ {
				for bi := 0; bi < ex.Alphabet().Len() && yMax == 0; bi++ {
					e, lead := int(ex.Score(byte(ai), byte(ai))), max(int(ex.Score(byte(bi), byte(ai))), 0)
					if bi == ai || e <= lead || (md.level-1-lead)%e != 0 {
						continue
					}
					if rows := (md.level-1-lead)/e + 1; rows%2 == 1 && rows >= md.lanes {
						a, b, yMax = byte(ai), byte(bi), rows
					}
				}
			}
			if yMax == 0 {
				t.Fatal("no residues put an odd row exactly one below the flag level")
			}
			r0 := yMax - md.lanes + 1
			m := r0 + yMax + 8 // n = yMax+8 columns: row yMax+1 reaches its peak
			run := bytes.Repeat([]byte{a}, m)
			junk := append([]byte{b}, run[1:]...)
			peak := func(s []byte, rows int) int {
				return int(align.MaxRowScore(align.Score(md.p, s[:rows], s[r0:])))
			}
			if peak(junk, yMax) != md.level-1 || peak(junk, yMax+1) < md.level || peak(run, yMax) < md.level || peak(run, yMax-1) >= md.level {
				t.Fatalf("case not constructed: peaks %d, %d (b) and %d, %d (run) around level %d",
					peak(junk, yMax), peak(junk, yMax+1), peak(run, yMax-1), peak(run, yMax), md.level)
			}
			if md.tier == TierInt16x16 && Int16Proven(md.p, m, r0, md.lanes) {
				t.Fatal("case not constructed: the int16 group is proven")
			}
			for _, tc := range []struct {
				name  string
				s     []byte
				rerun bool
			}{{"junk", junk, false}, {"run", run, true}} {
				where := fmt.Sprintf("%s a=%d b=%d r0=%d yMax=%d", tc.name, a, b, r0, yMax)
				g, err := sc.ScoreGroupAuto(md.p, tc.s, r0, md.lanes, nil)
				if err != nil {
					t.Fatal(err)
				}
				if g.Rerun != tc.rerun {
					t.Fatalf("%s: Rerun=%v, want %v", where, g.Rerun, tc.rerun)
				}
				if want := memberCells(m, r0, md.lanes, yMax); md.tier == TierU8x32 && tc.rerun && g.Wasted != want {
					t.Fatalf("%s: Wasted=%d, want %d", where, g.Wasted, want)
				}
				for k, got := range g.Bottoms {
					r := r0 + k
					if want := align.NaiveMatrix(md.p, tc.s[:r], tc.s[r:], nil, r)[r][1:]; !equalRows(got, want) {
						t.Fatalf("%s lane %d (split %d): rows differ from NaiveMatrix", where, k, r)
					}
				}
				if md.tier == TierU8x32 {
					want := 0
					if tc.rerun {
						want = yMax
					}
					if rows := sc.u8x32(md.p, tc.s, r0, nil, sc.newGroup(m, r0, md.lanes).Bottoms); rows != want {
						t.Fatalf("%s: byte pass reports %d rows computed, want %d", where, rows, want)
					}
				}
			}
		})
	}
}

// TestPairKernelSplitInvariance for the byte pair kernel: one sweep over
// group columns 1..n leaves a, cur, maxY, the carries and the flag
// exactly as two sweeps split after any column do — inside the 32-column
// border prefix, on its edge and past it — with row y kept and without,
// from random states low and near the flag level; and every sweep leaves
// the border cells of both rows zero.
func TestU8PairKernelSplitInvariance(t *testing.T) {
	if align.DetectedTier() < TierU8x32 {
		t.Skip("needs AVX2")
	}
	const n, open, ext, bias = 71, 11, 1, 4
	type state struct {
		a, cur, maxY  []uint8 // interleaved, 32 lanes per column 0..n
		mx, mx1, d, v [32]uint8
		flag          uint32
	}
	rng := rand.New(rand.NewSource(5))
	for _, base := range []int{0, 255 - bias - 60} {
		val := func() uint8 { return uint8(base + rng.Intn(60)) }
		low := func(k int) uint8 { return uint8(max(base+rng.Intn(60)-k, 0)) } // a gap chain, below the cells
		var in state
		in.a, in.cur, in.maxY = make([]uint8, 32*(n+1)), make([]uint8, 32*(n+1)), make([]uint8, 32*(n+1))
		exY, exY1 := make([]uint8, n+1), make([]uint8, n+1)
		for i := range in.a {
			in.a[i], in.cur[i], in.maxY[i] = val(), val(), low(rng.Intn(20))
		}
		for c := range exY {
			exY[c], exY1[c] = uint8(rng.Intn(16)), uint8(rng.Intn(16)) // biased: -4..11
		}
		for i := range in.mx {
			in.mx[i], in.mx1[i], in.d[i], in.v[i] = low(20), low(20), val(), val()
		}
		call := func(st *state, keep bool, c0, cols int) {
			var out *uint8
			if keep {
				out = &st.cur[32*c0]
			}
			rowU8Pair(&st.a[32*c0], out, &st.maxY[32*c0], &exY[c0], &exY1[c0], c0, cols, open, ext, bias,
				&st.mx[0], &st.mx1[0], &st.d[0], &st.v[0], &st.flag)
		}
		for _, keep := range []bool{false, true} {
			where := fmt.Sprintf("base=%d keep=%v", base, keep)
			clone := func() state {
				st := in
				st.a, st.cur, st.maxY = slices.Clone(in.a), slices.Clone(in.cur), slices.Clone(in.maxY)
				return st
			}
			whole := clone()
			call(&whole, keep, 1, n)
			if (whole.flag != 0) != (base > 0) {
				t.Fatalf("%s: flag=%#x; only the high state should flag", where, whole.flag)
			}
			if keep == slices.Equal(whole.cur, in.cur) {
				t.Fatalf("%s: cur written %v", where, !keep)
			}
			for c := 1; c < 32; c++ {
				for k := c; k < 32; k++ {
					if whole.a[32*c+k] != 0 || keep && whole.cur[32*c+k] != 0 {
						t.Fatalf("%s: border cell lane %d column %d not zero", where, k, c)
					}
				}
			}
			for k := 1; k < n; k++ {
				got := clone()
				call(&got, keep, 1, k)
				call(&got, keep, k+1, n-k)
				if !slices.Equal(got.a, whole.a) || !slices.Equal(got.cur, whole.cur) || !slices.Equal(got.maxY, whole.maxY) ||
					got.mx != whole.mx || got.mx1 != whole.mx1 || got.d != whole.d || got.v != whole.v ||
					got.flag != whole.flag {
					t.Fatalf("%s: split after column %d differs from one sweep", where, k)
				}
			}
		}
	}
}

// A span of n=0 columns must be a no-op for every row kernel: no
// stores, no flag, no crash. The drivers pass spans of n >= 1; the
// assembly's contract is kept anyway.
func TestRowKernelsZeroColumns(t *testing.T) {
	if DetectedTier() < TierInt32x8 {
		t.Skip("needs AVX2")
	}
	var prev32, cur32, maxY32, mx32 [8]int32
	for i := range cur32 {
		cur32[i], maxY32[i], mx32[i] = 42, 43, 44
	}
	ex32 := []int32{7}
	rowAVX8(&prev32[0], &cur32[0], &maxY32[0], &ex32[0], 0, 5, 1, &mx32[0])
	if cur32 != [8]int32{42, 42, 42, 42, 42, 42, 42, 42} || maxY32[0] != 43 || mx32[0] != 44 {
		t.Fatalf("rowAVX8 n=0 wrote: cur=%v maxY=%v mx=%v", cur32, maxY32, mx32)
	}

	type state16 struct{ a, cur, maxY, mx, mx1, d, v [16]int16 }
	var in16 state16
	for i := range in16.a {
		in16.a[i], in16.cur[i], in16.maxY[i] = 40, 41, 42
		in16.mx[i], in16.mx1[i], in16.d[i], in16.v[i] = 43, 44, 45, 46
	}
	ex16 := []int16{7}
	var sat uint32
	st := in16
	rowAVX16Pair(&st.a[0], &st.cur[0], &st.maxY[0], &ex16[0], &ex16[0], 16, 0, 5, 1, &st.mx[0], &st.mx1[0], &st.d[0], &st.v[0], &sat)
	if st != in16 || sat != 0 {
		t.Errorf("rowAVX16Pair n=0 wrote or flagged: sat=%#x", sat)
	}
	st = in16
	rowAVX16PairFast(&st.a[0], &st.cur[0], &st.maxY[0], &ex16[0], &ex16[0], 16, 0, 5, 1, &st.mx[0], &st.mx1[0], &st.d[0], &st.v[0])
	if st != in16 {
		t.Errorf("rowAVX16PairFast n=0 wrote")
	}

	type state8 struct{ a, cur, maxY, mx, mx1, d, v [32]uint8 }
	var in8 state8
	for i := range in8.a {
		in8.a[i], in8.cur[i], in8.maxY[i] = 40, 41, 42
		in8.mx[i], in8.mx1[i], in8.d[i], in8.v[i] = 43, 44, 250, 250 // at the flag level
	}
	ex8 := []uint8{7}
	var flag uint32
	st8 := in8
	rowU8Pair(&st8.a[0], &st8.cur[0], &st8.maxY[0], &ex8[0], &ex8[0], 32, 0, 5, 1, 4, &st8.mx[0], &st8.mx1[0], &st8.d[0], &st8.v[0], &flag)
	if st8 != in8 || flag != 0 {
		t.Errorf("rowU8Pair n=0 wrote or flagged: flag=%#x", flag)
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
	prev16, maxY16 := make([]int16, 16*cols), make([]int16, 16*cols)
	prev8, maxY8 := make([]uint8, 32*cols), make([]uint8, 32*cols)
	ex32, ex16, ex16b, ex8 := make([]int32, cols), make([]int16, cols), make([]int16, cols), make([]uint8, cols)
	var mx32 [8]int32
	var mx, mx1, d, v [16]int16
	var mx8, mx18, d8, v8 [32]uint8
	var sat uint32
	for _, n := range []int{1, 16} {
		for _, k := range []struct {
			name string
			call func()
		}{
			{"rowAVX8", func() { rowAVX8(&prev32[0], &cur32[8], &maxY32[8], &ex32[1], n, 11, 1, &mx32[0]) }},
			{"rowAVX16Pair", func() {
				rowAVX16Pair(&prev16[16], nil, &maxY16[16], &ex16[1], &ex16b[1], 16, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0], &sat)
			}},
			{"rowAVX16PairFast", func() {
				rowAVX16PairFast(&prev16[16], nil, &maxY16[16], &ex16[1], &ex16b[1], 16, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0])
			}},
			{"rowU8Pair", func() {
				rowU8Pair(&prev8[32], nil, &maxY8[32], &ex8[1], &ex8[1], 32, n, 11, 1, 4, &mx8[0], &mx18[0], &d8[0], &v8[0], &sat)
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

// The inner loops of the pair kernels start on a 64-byte boundary
// (PCALIGN $64 in avx2_amd64.s): rowAVX16Pair's, rowAVX16PairFast's and
// rowU8Pair's.
func TestPairKernelLoopsAreAligned(t *testing.T) {
	asmtest.LoopHeadsAligned(t, "multialign/avx2_amd64.s", 3)
}

// BenchmarkPairKernels is the byte rung's gate and the record of what
// rowAVX16PairFast saves over the flagged rowAVX16Pair: lane-cells per
// second (MB/s reads as Mcells/s) of one pair sweep from column 1 — two
// rows, 16 lanes on the int16 kernels, 32 on rowU8Pair — over the column
// counts of BenchmarkScoreGroupAuto16's groups at n = 300, 600 and 1 200,
// and at 1 500, the widest group of a proven run at n = 3 000.
func BenchmarkPairKernels(b *testing.B) {
	if align.DetectedTier() < TierU8x32 {
		b.Skip("needs AVX2")
	}
	for _, n := range []int{150, 300, 600, 1500} {
		a16, maxY16, ex16 := make([][16]int16, n+1), make([][16]int16, n+1), make([]int16, n+1)
		a8, maxY8, ex8 := make([][32]uint8, n+1), make([][32]uint8, n+1), make([]uint8, n+1)
		for c := range ex16 {
			ex16[c], ex8[c] = int16(c%7-3), uint8(c%7+1) // the same values, biased by 4
		}
		var mx, mx1, d, v [16]int16
		var mx8, mx18, d8, v8 [32]uint8
		var flag uint32
		b.Run(fmt.Sprintf("rowAVX16PairFast/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 16 * n))
			for i := 0; i < b.N; i++ {
				rowAVX16PairFast(&a16[1][0], nil, &maxY16[1][0], &ex16[1], &ex16[1], 1, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0])
			}
		})
		b.Run(fmt.Sprintf("rowAVX16Pair/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 16 * n))
			for i := 0; i < b.N; i++ {
				rowAVX16Pair(&a16[1][0], nil, &maxY16[1][0], &ex16[1], &ex16[1], 1, n, 11, 1, &mx[0], &mx1[0], &d[0], &v[0], &flag)
			}
		})
		b.Run(fmt.Sprintf("rowU8Pair/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 32 * n))
			for i := 0; i < b.N; i++ {
				rowU8Pair(&a8[1][0], nil, &maxY8[1][0], &ex8[1], &ex8[1], 1, n, 11, 1, 4, &mx8[0], &mx18[0], &d8[0], &v8[0], &flag)
			}
		})
	}
}
