//go:build !amd64

package align

// Off amd64 there is no vector tier: detection is constant false, so
// RowTier resolves every call to the Go row and the kernels below are
// unreachable. They exist so the row drivers compile.
const (
	hasAVX2   = false
	hasAVX512 = false
)

func scan16(prev, cur, maxY, prof *int16, codes *byte, rows, stride int, out32 *int32, nb int, open, ext int16) {
	panic("align: int16x16 row kernel selected without AVX2")
}

func scanU8(prev, cur, maxY, maxYout, prof *uint8, codes *byte, rows, stride, nb int, k *u8Consts) int {
	panic("align: u8x32 row kernel selected without AVX2")
}

func rowScan8(prev, cur, maxY *int32, ex *int16, nb int, open, ext int32) {
	panic("align: int32x8 row kernel selected without AVX2")
}

func seg16(prev, cur, maxY, prof *int16, codes *byte, rows, stride, segs int, carry, ramp *int16, k *segConsts, redo bool) {
	panic("align: segmented int16x16 row kernel selected without AVX2")
}

func segProfileRow(dst *int16, codes *uint8, tab *segTable, segs int) {
	panic("align: segmented int16x16 row kernel selected without AVX2")
}
