package align

import (
	"fmt"
	"math/rand/v2"
	"testing"

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
// one call of each row kernel — gotohRow, rowScan16, rowScan8 — and, with
// override bits at the mask columns, the kernel followed by zeroMasked,
// against refRow, on row states a matrix need not be able to reach: cur
// and maxY must come out bit for bit, for every width across the first
// three blocks and either side of later block boundaries, under every
// harness model the kernel's tier accepts.
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
						rowScan16(&p16[0], &c16[2], &m16[0], &ex[0], nil, nb, int16(open), int16(ext))
						if masked {
							zeroMasked(c16[2:2+n], tri, 1, 2)
						}
						for i := 0; i < n; i++ {
							if int32(c16[2+i]) != cur[1+i] || int32(m16[i]) != maxY[1+i] {
								t.Fatalf("%s: rowScan16 column %d: cur %d maxY %d, reference %d and %d", where, i+1, c16[2+i], m16[i], cur[1+i], maxY[1+i])
							}
						}
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
	ex := make([]int16, 32)
	for _, k := range []struct {
		name string
		cols int
		call func()
	}{
		{"rowScan16", 16, func() { rowScan16(&prev16[0], &cur16[2], &maxY16[0], &ex[0], nil, 1, 11, 1) }},
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
