//go:build amd64

package align

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 gates the vector tiers of this package and of
// internal/multialign. Detection is pure: runtime tier selection
// (tier.go) decides what actually runs, and honors the REPRO_KERNEL_TIER
// environment override at init.
var hasAVX2 = detectAVX2()

// hasAVX512 reports AVX-512 F+BW support for the stubbed future tier.
var hasAVX512 = detectAVX512()

// detectAVX2 performs the standard three-step check: AVX + OSXSAVE in
// CPUID.1:ECX, XMM+YMM state enabled in XCR0, AVX2 in CPUID.7.0:EBX.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// detectAVX512 checks for the AVX-512 Foundation + BW extensions a
// 32-lane int16 kernel would need: opmask/zmm state enabled in XCR0
// (bits 5-7) and AVX512F (bit 16) + AVX512BW (bit 30) in CPUID.7.0:EBX.
// Diagnostic only until that tier exists.
func detectAVX512() bool {
	if !detectAVX2() {
		return false
	}
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const fAndBW = 1<<16 | 1<<30
	return b&fAndBW == fAndBW
}
