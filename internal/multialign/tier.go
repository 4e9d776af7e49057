package multialign

import "repro/internal/align"

// Tier identifies one rung of the kernel ladder. The ladder — names,
// CPU detection, the REPRO_KERNEL_TIER / SetKernelTier override and the
// int16 lane bounds — is declared once, in package align, whose row
// kernel climbs it too; the names below are the same ones, kept here for
// the callers that think in groups. The byte rung (u8x32) serves 32-lane
// groups only (TierFor): ActiveTier and DetectedTier, which callers read
// as the widest tier a 16-lane group runs on, read it as int16x16.
type Tier = align.Tier

const (
	// TierScalar is the pure-Go rung: align's row kernel under a forced
	// scalar tier, one split of the group at a time. Always available.
	TierScalar = align.TierScalar
	// TierInt32x8 is the AVX2 row kernel with 8 exact int32 lanes per
	// vector register (rowAVX8).
	TierInt32x8 = align.TierInt32x8
	// TierInt16x16 is the AVX2 pair kernel with 16 saturating int16 lanes
	// per vector register (rowAVX16Pair): twice the cells per instruction,
	// guarded by a sticky saturation flag and an int32 re-run.
	TierInt16x16 = align.TierInt16x16
	// TierU8x32 is the AVX2 byte kernel with 32 saturating unsigned byte
	// lanes per vector register (rowU8Pair), for 32-lane groups: a group
	// whose pass reaches the top of the byte range re-runs on int16x16.
	TierU8x32 = align.TierU8x32
)

// ParseTier is the inverse of Tier.String.
func ParseTier(name string) (Tier, error) { return align.ParseTier(name) }

// DetectedTier reports the widest kernel tier the CPU supports for a
// 16-lane group, independent of any override: u8x32 reads as int16x16.
func DetectedTier() Tier { return min(align.DetectedTier(), TierInt16x16) }

// DetectedAVX512 reports whether the CPU and OS support the AVX-512
// foundation + BW instructions (diagnostic only; no kernel uses them).
func DetectedAVX512() bool { return align.DetectedAVX512() }

// SetKernelTier overrides the active kernel tier at runtime, for the
// group kernels and align's row kernel alike; see align.SetKernelTier.
func SetKernelTier(name string) error { return align.SetKernelTier(name) }

// ActiveTier returns the tier a 16-lane group currently selects from: the
// runtime override when set, the detected tier otherwise, u8x32 read as
// int16x16. The effective tier of a particular call can be narrower, and
// a 32-lane call's wider (see TierFor). It is the group view only: passing it back to SetKernelTier
// caps a u8x32 process at int16x16, so code that saves and restores the
// override reads align.ActiveTier instead.
func ActiveTier() Tier { return min(align.ActiveTier(), TierInt16x16) }

// The int16 lane-arithmetic bounds (see align.SatLimit16): satLimit16 is
// the sticky-saturation threshold — any cell value reaching it sets the
// overflow flag and triggers the exact int32 re-run.
const (
	satLimit16  = align.SatLimit16
	negInf16    = align.NegInf16
	maxGapInt16 = align.MaxGapInt16
)

// TierFor resolves the effective kernel tier for one group call: align's
// active tier, narrowed by what the group shape and scoring model
// support. The byte tier serves only 32-lane groups whose parameters fit
// the byte rung (align.ByteParamsOK); the int16 tier needs at least 16
// lanes and parameters that fit 16-bit arithmetic; the int32 vector
// kernel needs groups of at least 8 lanes.
func TierFor(p align.Params, m, lanes int) Tier {
	t := align.ActiveTier()
	if t >= TierU8x32 && (lanes < 32 || !align.ByteParamsOK(p)) {
		t = TierInt16x16
	}
	if t >= TierInt16x16 && (lanes < 16 || !align.Int16ParamsOK(p)) {
		t = TierInt32x8
	}
	if t >= TierInt32x8 && lanes < 8 {
		t = TierScalar
	}
	return t
}

// Int16Proven reports whether the int16 kernel provably cannot saturate
// on this group, so the driver can skip saturation tracking entirely
// (the proven row kernel drops the compare+accumulate per column). A
// local-alignment cell at (y, x) is at most MaxScore*min(y, x): every
// path to it makes at most min(y, x) diagonal steps, each worth at most
// MaxScore, and gaps only subtract. The kernel computes rows up to
// yMax = min(r0+lanes-1, m-1) over n = m-r0 columns — dead lanes keep
// evolving past their last captured row, so the bound must cover the
// full computed region, not just live cells.
func Int16Proven(p align.Params, m, r0, lanes int) bool {
	rows := r0 + lanes - 1
	if rows > m-1 {
		rows = m - 1
	}
	return align.Int16Proven(p, min(rows, m-r0))
}
