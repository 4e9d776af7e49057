package multialign

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/align"
)

// Tier identifies one rung of the group-kernel ladder, ordered from the
// universal scalar rung to the widest vector kernel. Wider tiers are
// strictly faster per core but carry preconditions: the int32 tier needs
// AVX2, and the int16 tier additionally needs the scoring model to fit
// 16-bit lane arithmetic (see int16ParamsOK). Every tier produces
// bit-identical bottom rows — the int16 tier guarantees it by detecting
// saturation and transparently re-running the group in int32.
type Tier uint8

const (
	// TierScalar is the pure-Go path: align's scalar row kernel, one
	// split of the group at a time. Always available.
	TierScalar Tier = iota
	// TierInt32x8 is the AVX2 row kernel with 8 exact int32 lanes per
	// vector register (rowAVX8).
	TierInt32x8
	// TierInt16x16 is the AVX2 row kernel with 16 saturating int16 lanes
	// per vector register (rowAVX16): twice the cells per instruction,
	// guarded by a sticky saturation flag and an int32 re-run.
	TierInt16x16
)

// String names the tier as it appears in the bench ledger, metrics and
// the REPRO_KERNEL_TIER override.
func (t Tier) String() string {
	switch t {
	case TierInt16x16:
		return "int16x16"
	case TierInt32x8:
		return "int32x8"
	default:
		return "scalar"
	}
}

// ParseTier is the inverse of Tier.String.
func ParseTier(name string) (Tier, error) {
	switch name {
	case "scalar":
		return TierScalar, nil
	case "int32x8":
		return TierInt32x8, nil
	case "int16x16":
		return TierInt16x16, nil
	}
	return TierScalar, fmt.Errorf("multialign: unknown kernel tier %q (have scalar, int32x8, int16x16)", name)
}

// detectedTier is the widest tier the CPU supports. Both vector tiers
// need only AVX2; AVX-512 is detected (DetectedAVX512) but not yet used
// for kernel selection — the 32-lane widening is a future tier.
var detectedTier = func() Tier {
	if hasAVX2 {
		return TierInt16x16
	}
	return TierScalar
}()

// DetectedTier reports the widest kernel tier the CPU supports,
// independent of any override.
func DetectedTier() Tier { return detectedTier }

// DetectedAVX512 reports whether the CPU and OS support the AVX-512
// foundation + BW instructions the future 32-lane tier would need. It is
// diagnostic only: no kernel uses AVX-512 yet.
func DetectedAVX512() bool { return hasAVX512 }

// tierOverride holds a runtime-settable tier cap: -1 means "no override,
// use the detected tier". Tests and benchmarks flip it in-process with
// SetKernelTier; REPRO_KERNEL_TIER sets it at init.
var tierOverride atomic.Int32

func init() {
	tierOverride.Store(envTier(os.Getenv("REPRO_KERNEL_TIER"), detectedTier, os.Stderr))
}

// envTier resolves a REPRO_KERNEL_TIER value to a tierOverride value. A
// name that does not parse is reported on warn, since a typo would
// otherwise run the detected tier and pass every forced-tier check
// vacuously. A valid tier the CPU lacks degrades to the detected tier
// without a word: CI forces each tier in turn on whatever runner it gets.
func envTier(v string, detected Tier, warn io.Writer) int32 {
	if v == "" || v == "auto" {
		return -1
	}
	t, err := ParseTier(v)
	if err != nil {
		fmt.Fprintf(warn, "REPRO_KERNEL_TIER ignored: %v\n", err)
		return -1
	}
	if t > detected {
		return -1
	}
	return int32(t)
}

// SetKernelTier overrides the active kernel tier at runtime. The empty
// string or "auto" clears the override; otherwise the name must parse
// (scalar, int32x8, int16x16) and the tier must be supported by this
// CPU. Safe for concurrent use with running kernels: each group call
// reads the override once.
func SetKernelTier(name string) error {
	if name == "" || name == "auto" {
		tierOverride.Store(-1)
		return nil
	}
	t, err := ParseTier(name)
	if err != nil {
		return err
	}
	if t > detectedTier {
		return fmt.Errorf("multialign: kernel tier %s not supported on this CPU (detected %s)", t, detectedTier)
	}
	tierOverride.Store(int32(t))
	return nil
}

// ActiveTier returns the tier group kernels currently select from: the
// runtime override when set, the detected tier otherwise. The effective
// tier of a particular call can be narrower (see TierFor).
func ActiveTier() Tier {
	if o := tierOverride.Load(); o >= 0 {
		return Tier(o)
	}
	return detectedTier
}

// int16 lane-arithmetic bounds. satLimit16 is the sticky-saturation
// threshold: any cell value reaching it sets the overflow flag and
// triggers the exact int32 re-run. It leaves headroom so that, by
// induction, unflagged lanes are always exact: inputs below the limit
// plus an exchange value (|score| < Bias) stay below the int16
// saturation point 32767, so VPADDSW never actually clips an unflagged
// value. negInf16 is the 16-bit analogue of the scalar kernel's
// -infinity; maxGapInt16 bounds open+ext so real gap-chain values
// (>= -(open+ext)) stay strictly above it.
const (
	satLimit16  = 32000
	negInf16    = -(1 << 14)
	maxGapInt16 = 1 << 13
)

// int16ParamsOK reports whether the scoring model fits 16-bit lane
// arithmetic: exchange values within the lane bias (so one saturating
// add cannot jump from below satLimit16 past 32767) and gap penalties
// small enough that negInf16 stays below every reachable gap-chain
// value.
func int16ParamsOK(p align.Params) bool {
	if p.Exch == nil {
		return false
	}
	if hi, lo := p.Exch.MaxScore(), p.Exch.MinScore(); hi >= Bias || lo <= -Bias {
		return false
	}
	return p.Gap.Open >= 0 && p.Gap.Ext >= 0 && p.Gap.Open+p.Gap.Ext < maxGapInt16
}

// TierFor resolves the effective kernel tier for one group call: the
// active tier, narrowed by what the group shape and scoring model
// support. The int16 tier serves only full 16-lane groups whose
// parameters fit 16-bit arithmetic; the int32 vector kernel needs groups
// of at least 8 lanes.
func TierFor(p align.Params, m, lanes int) Tier {
	t := ActiveTier()
	if t >= TierInt16x16 && (lanes < 16 || !int16ParamsOK(p)) {
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
	if !int16ParamsOK(p) {
		return false
	}
	hi := int64(p.Exch.MaxScore())
	if hi <= 0 {
		return true // cells are clamped at 0 and nothing scores above it
	}
	rows := r0 + lanes - 1
	if rows > m-1 {
		rows = m - 1
	}
	dim := m - r0
	if rows < dim {
		dim = rows
	}
	return hi*int64(dim) < satLimit16
}
