package align

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/asmtest"
	"repro/internal/scoring"
	"repro/internal/triangle"
)

// randomRow fills a row above: all zero (kind 0), small values as a real
// matrix has, sparse values anywhere below the int16 limit, or all of
// them just below it.
func randomRow(rng *rand.Rand, n int, kind int) []int32 {
	row := make([]int32, n)
	for i := range row {
		switch kind {
		case 1:
			row[i] = int32(rng.IntN(60))
		case 2:
			if rng.IntN(4) == 0 {
				row[i] = int32(rng.IntN(SatLimit16))
			}
		case 3:
			row[i] = SatLimit16 - 1 - int32(rng.IntN(300))
		}
	}
	return row
}

// refRow is the row harness's oracle, sharing no code with any row
// kernel: Equation 1 cell by cell — the horizontal gap candidates by an
// explicit scan over the row above, the override bit by a Get probe of
// triangle row 1 — for columns 1..len(s2), plus the column gap maxima
// the row must leave behind. tri == nil disables masking.
func refRow(prev, gapMax []int32, exch []int16, s2 []byte, open, ext int32, tri *triangle.Triangle) (cur, maxY []int32) {
	cur, maxY = make([]int32, len(s2)+1), make([]int32, len(s2)+1)
	for x := 1; x <= len(s2); x++ {
		best := max(prev[x-1], gapMax[x-1])
		for k := 1; x-1-k >= 0; k++ {
			best = max(best, prev[x-1-k]-open-int32(k)*ext)
		}
		if tri == nil || !tri.Get(1, 1+x) {
			cur[x] = max(0, best+int32(exch[s2[x-1]]))
		}
		maxY[x] = max(prev[x-1]-open, gapMax[x-1]) - ext
	}
	return cur, maxY
}

// TestRowKernelsMatchGoRow is the row half of the row-kernel harness:
// one row of each row kernel — gotohRow, scan16, seg16, rowScan8,
// scanU8 — and, with override bits at the mask columns, the kernel
// followed by zeroMasked, against refRow, on row states a matrix need
// not be able to reach: cur and maxY must come out bit for bit, for every
// width across the first three blocks and either side of later block
// boundaries, under every harness model the kernel's tier accepts. The
// byte kernel gets the row states below its flag level, with its gap
// chains clamped at zero, and must flag exactly the rows whose reference
// reaches that level.
func TestRowKernelsMatchGoRow(t *testing.T) {
	if DetectedTier() < TierInt16x16 {
		t.Skip("needs AVX2")
	}
	rng := rand.New(rand.NewPCG(23, 5))
	for _, rm := range rowModels {
		model := newRowModel(rm.p)
		alpha := rm.p.Exch.Alphabet().Len()
		open, ext := rm.p.Gap.Open, rm.p.Gap.Ext
		for _, n := range rowWidths() {
			s2 := make([]byte, n)
			for i := range s2 {
				s2[i] = byte(rng.IntN(alpha))
			}
			exch := rm.p.Exch.Row(byte(rng.IntN(alpha)))
			ex := make([]int16, n+RowBlock)
			for i, c := range s2 {
				ex[i] = exch[c]
			}
			tri := triangle.New(n + 2) // row 1 of the triangle: column x is the pair (1, 1+x)
			for _, c := range maskColumns(n) {
				tri.Set(1, 1+c)
			}
			for kind := 0; kind < 4; kind++ {
				above := randomRow(rng, n, kind)
				gapMax := make([]int32, n) // column gap maxima coming in
				for i := range gapMax {
					gapMax[i] = NegInf16
					if kind > 0 && rng.IntN(2) == 0 {
						gapMax[i] = int32(rng.IntN(SatLimit16)) - open - ext
					}
				}
				for _, masked := range []bool{false, true} {
					where := fmt.Sprintf("%s n=%d kind=%d masked=%v", rm.name, n, kind, masked)
					prev := append([]int32{0}, above...) // boundary, then the cells above columns 1..n
					mask := tri
					if !masked {
						mask = nil
					}
					cur, maxY := refRow(prev, gapMax, exch, s2, open, ext, mask)

					goCur, goMaxY := make([]int32, n+1), make([]int32, n+1)
					copy(goMaxY[1:], gapMax)
					gotohRow(prev, goCur, goMaxY, exch, s2, open, ext, negInf)
					if masked {
						zeroMasked(goCur[1:], tri, 1, 2)
					}
					if !equalI32(goCur[1:], cur[1:]) || !equalI32(goMaxY[1:], maxY[1:]) {
						t.Fatalf("%s: gotohRow: cur %v maxY %v, reference %v and %v", where, goCur[1:], goMaxY[1:], cur[1:], maxY[1:])
					}

					if model.ok16 {
						nb := (n + RowBlock - 1) / RowBlock
						p16, c16, m16 := make([]int16, 2+RowBlock*nb), make([]int16, 2+RowBlock*nb), make([]int16, RowBlock*nb)
						for i := 0; i < n; i++ {
							p16[2+i] = int16(above[i])
							m16[i] = int16(gapMax[i])
						}
						scan16(&p16[0], &c16[2], &m16[0], &ex[0], new(byte), 1, 0, nil, nb, int16(open), int16(ext))
						if masked {
							zeroMasked(c16[2:2+n], tri, 1, 2)
						}
						for i := 0; i < n; i++ {
							if int32(c16[2+i]) != cur[1+i] || int32(m16[i]) != maxY[1+i] {
								t.Fatalf("%s: scan16 column %d: cur %d maxY %d, reference %d and %d", where, i+1, c16[2+i], m16[i], cur[1+i], maxY[1+i])
							}
						}
					}
					if model.ok16 {
						checkSeg16(t, where, rm.p, exch, s2, above, gapMax, mask, cur, maxY)
					}
					if model.ok8 {
						checkScanU8(t, where, model, exch, s2, above, gapMax, mask)
					}
					if model.ok32 {
						const block = RowBlock / 2
						nb := (n + block - 1) / block
						p32, c32, m32 := make([]int32, 2+block*nb), make([]int32, 2+block*nb), make([]int32, block*nb)
						copy(p32[2:], above)
						copy(m32, gapMax)
						rowScan8(&p32[0], &c32[2], &m32[0], &ex[0], nb, open, ext)
						if masked {
							zeroMasked(c32[2:2+n], tri, 1, 2)
						}
						for i := 0; i < n; i++ {
							if c32[2+i] != cur[1+i] || m32[i] != maxY[1+i] {
								t.Fatalf("%s: rowScan8 column %d: cur %d maxY %d, reference %d and %d", where, i+1, c32[2+i], m32[i], cur[1+i], maxY[1+i])
							}
						}
					}
				}
			}
		}
	}
}

// checkSeg16 runs one row of the segmented kernel over the row state of
// TestRowKernelsMatchGoRow laid out in segments, carry and slot rebuilt
// from the row above (redo), and holds it to the reference cur and maxY:
// every carry between segments is exercised, since the row above is
// arbitrary.
func checkSeg16(t *testing.T, where string, p Params, exch []int16, s2 []byte, above, gapMax []int32, tri *triangle.Triangle, cur, maxY []int32) {
	t.Helper()
	n := len(s2)
	segs := (n + RowBlock - 1) / RowBlock
	prev, next, mY := make([]int16, RowBlock*(segs+1)), make([]int16, RowBlock*(segs+1)), make([]int16, RowBlock*segs)
	ex := make([]int16, RowBlock*segs)
	row := make([]int16, n)
	for i, c := range s2 {
		row[i] = exch[c]
	}
	stripe(ex, row, n, segs, 0)
	lay := func(dst []int16, src []int32, fill int16) {
		for i, v := range src {
			row[i] = int16(v)
		}
		stripe(dst, row, n, segs, fill)
	}
	lay(prev[RowBlock:], above, 0)
	lay(mY, gapMax, NegInf16)
	var m segModel
	m.set(p, segs)
	var carry [2][RowBlock]int16
	seg16(&prev[0], &next[0], &mY[0], &ex[0], new(byte), 1, 0, segs, &carry[0][0], &m.ramp[0], &m.k, true)
	if tri != nil {
		zeroMaskedSegs(next[RowBlock:], segs, tri, 1, 2, n, &carry[1], m.ramp)
	}
	gotCur, gotMaxY := make([]int32, n), make([]int32, n)
	unstripe(gotCur, next[RowBlock:], segs)
	unstripe(gotMaxY, mY, segs)
	for i := 0; i < n; i++ {
		if gotCur[i] != cur[1+i] || gotMaxY[i] != maxY[1+i] {
			t.Fatalf("%s: seg16 column %d: cur %d maxY %d, reference %d and %d", where, i+1, gotCur[i], gotMaxY[i], cur[1+i], maxY[1+i])
		}
	}
}

// checkScanU8 runs one byte-kernel row over the row state of
// TestRowKernelsMatchGoRow mapped into bytes: cells above are brought
// under the flag level, since no byte pass is ever handed one, and so are
// gap maxima coming in, which the kernel moreover keeps clamped at zero. A row
// whose unmasked reference reaches the flag level must flag and leave the
// row above and the gap maxima it read as they were, for the int16 rung
// to carry on from; any other must match the reference cell for cell, its
// gap maxima, written to the other buffer, clamped.
func checkScanU8(t *testing.T, where string, m rowModel, exch []int16, s2 []byte, above, gapMax []int32, tri *triangle.Triangle) {
	t.Helper()
	n := len(s2)
	limit := 255 - m.bias8
	prev, gm := make([]int32, n+1), make([]int32, n)
	for i, v := range above {
		prev[1+i] = v % limit
		gm[i] = gapMax[i]
		if gm[i] > 0 {
			gm[i] %= limit
		}
	}
	gapMax = gm
	open, ext := m.p.Gap.Open, m.p.Gap.Ext
	unmasked, _ := refRow(prev, gapMax, exch, s2, open, ext, nil)
	reaches := slices.Max(unmasked[1:]) >= limit

	const block = 2 * RowBlock
	nb := (n + block - 1) / block
	p8, c8, m8, m8out := make([]uint8, 2+block*nb), make([]uint8, 2+block*nb), make([]uint8, block*nb), make([]uint8, block*nb)
	ex8 := make([]uint8, block*nb)
	for i, c := range s2 {
		p8[2+i] = uint8(prev[1+i])
		m8[i] = uint8(max(0, gapMax[i]))
		ex8[i] = uint8(int32(exch[c]) + m.bias8)
	}
	p8in, m8in := slices.Clone(p8), slices.Clone(m8)
	k := newU8Consts(m.p, m.bias8)
	flagged := scanU8(&p8[0], &c8[2], &m8[0], &m8out[0], &ex8[0], new(byte), 1, 0, nb, &k)
	if (flagged != 0) != reaches {
		t.Fatalf("%s: scanU8 returned %d, but the reference reaching %d is %v", where, flagged, limit, reaches)
	}
	if !slices.Equal(p8, p8in) || !slices.Equal(m8, m8in) {
		t.Fatalf("%s: scanU8 wrote over the row above or the gap maxima it read", where)
	}
	if reaches {
		return
	}
	cur, maxY := refRow(prev, gapMax, exch, s2, open, ext, tri)
	if tri != nil {
		zeroMasked(c8[2:2+n], tri, 1, 2)
	}
	for i := 0; i < n; i++ {
		if int32(c8[2+i]) != cur[1+i] || int32(m8out[i]) != max(0, maxY[1+i]) {
			t.Fatalf("%s: scanU8 column %d: cur %d maxY %d, reference %d and %d", where, i+1, c8[2+i], m8out[i], cur[1+i], max(0, maxY[1+i]))
		}
	}
}

// BenchmarkRowCall is what one call of each vector row kernel costs at
// one block and at 16 columns: the fixed part of a row, which bounds
// the throughput of narrow windows (multialign has the group kernels'
// twin, and the story of the SSE/AVX transition both guard against).
func BenchmarkRowCall(b *testing.B) {
	if DetectedTier() < TierInt32x8 {
		b.Skip("needs AVX2")
	}
	prev16, cur16, maxY16 := make([]int16, 2+16), make([]int16, 2+16), make([]int16, 16)
	prev32, cur32, maxY32 := make([]int32, 2+16), make([]int32, 2+16), make([]int32, 16)
	prev8, cur8, maxY8, maxYout8 := make([]uint8, 2+32), make([]uint8, 2+32), make([]uint8, 32), make([]uint8, 32)
	ex := make([]int16, 32)
	ex8 := make([]uint8, 64)
	k := newU8Consts(Params{Gap: scoring.DefaultProteinGap}, 4)
	for _, k := range []struct {
		name string
		cols int
		call func()
	}{
		{"scan16", 16, func() { scan16(&prev16[0], &cur16[2], &maxY16[0], &ex[0], new(byte), 1, 0, nil, 1, 11, 1) }},
		{"scanU8", 32, func() { scanU8(&prev8[0], &cur8[2], &maxY8[0], &maxYout8[0], &ex8[0], new(byte), 1, 0, 1, &k) }},
		{"rowScan8", 8, func() { rowScan8(&prev32[0], &cur32[2], &maxY32[0], &ex[0], 1, 11, 1) }},
		{"rowScan8", 16, func() { rowScan8(&prev32[0], &cur32[2], &maxY32[0], &ex[0], 2, 11, 1) }},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", k.name, k.cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.call()
			}
		})
	}
}

// The inner loops of the row kernels start on a 64-byte boundary
// (PCALIGN $64 in row_amd64.s), one per kernel.
func TestRowKernelLoopsAreAligned(t *testing.T) {
	asmtest.LoopHeadsAligned(t, "align/row_amd64.s", 4)
}
