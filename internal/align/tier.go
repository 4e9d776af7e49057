package align

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Tier identifies one rung of the kernel ladder, ordered from the
// universal scalar rung to the widest vector kernel. The same ladder
// serves the row kernel of this package (one matrix, a vector of
// neighbouring columns) and the group kernels of internal/multialign (a
// vector of neighbouring matrices, one column): wider tiers are strictly
// faster per core but carry preconditions — the int32 tier needs AVX2,
// the int16 tier additionally needs the scoring model to fit 16-bit lane
// arithmetic (Int16ParamsOK), and the byte tier serves only score-only
// window passes that the int16 tier would serve and multialign's 32-lane
// groups. Every tier produces bit-identical rows.
type Tier uint8

const (
	// TierScalar is the pure-Go path: gotohRow, one cell at a time.
	// Always available.
	TierScalar Tier = iota
	// TierInt32x8 is an AVX2 kernel with 8 exact int32 lanes per vector
	// register.
	TierInt32x8
	// TierInt16x16 is an AVX2 kernel with 16 saturating int16 lanes per
	// vector register: twice the cells per instruction, for alignments
	// whose scores stay below SatLimit16.
	TierInt16x16
	// TierU8x32 is the byte rung: an AVX2 kernel with 32 saturating
	// unsigned byte lanes per vector register, twice the int16 rung's
	// width. It runs ScoreWindow's passes (a prefilter window's first
	// alignment and its masked realignments) where the int16 rung would;
	// a sticky flag catches the first row that reaches the top of the
	// byte range, and the int16 rung computes that row again and the rest
	// of the pass. multialign's 32-lane groups run on it too, re-run on
	// the int16 rung when a pass flags. Matrices and tracebacks never run
	// on it.
	TierU8x32
)

// String names the tier as it appears in the bench ledger, metrics and
// the REPRO_KERNEL_TIER override.
func (t Tier) String() string {
	switch t {
	case TierU8x32:
		return "u8x32"
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
	case "u8x32":
		return TierU8x32, nil
	}
	return TierScalar, fmt.Errorf("align: unknown kernel tier %q (have scalar, int32x8, int16x16, u8x32)", name)
}

// detectedTier is the widest tier the CPU supports. Every vector tier,
// the 32-lane byte rung included, needs only AVX2; AVX-512 is detected
// (DetectedAVX512) but no kernel uses it.
var detectedTier = func() Tier {
	if hasAVX2 {
		return TierU8x32
	}
	return TierScalar
}()

// DetectedTier reports the widest kernel tier the CPU supports,
// independent of any override.
func DetectedTier() Tier { return detectedTier }

// DetectedAVX512 reports whether the CPU and OS support the AVX-512
// foundation + BW instructions. It is diagnostic only: no kernel uses
// AVX-512 (the 32-lane rung, u8x32, runs on AVX2).
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
// (scalar, int32x8, int16x16, u8x32) and the tier must be supported by this
// CPU. Safe for concurrent use with running kernels: each kernel call
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
		return fmt.Errorf("align: kernel tier %s not supported on this CPU (detected %s)", t, detectedTier)
	}
	tierOverride.Store(int32(t))
	return nil
}

// ActiveTier returns the tier kernels currently select from: the runtime
// override when set, the detected tier otherwise. The effective tier of
// a particular call can be narrower (RowTier, multialign.TierFor).
func ActiveTier() Tier {
	if o := tierOverride.Load(); o >= 0 {
		return Tier(o)
	}
	return detectedTier
}

// int16 lane-arithmetic bounds, shared by the int16 row kernel here and
// the int16 group kernel of internal/multialign. Cell values must stay
// below SatLimit16: the row kernel is only chosen where a score bound
// proves it (Int16Proven), the group kernel also tracks a sticky flag
// and re-runs in int32. The headroom makes unflagged lanes exact by
// induction: inputs below the limit plus an exchange value
// (|score| < Int16Bias) stay below the int16 saturation point 32767, so
// a saturating add never clips a real value. NegInf16 is the 16-bit
// analogue of the scalar kernel's -infinity; MaxGapInt16 bounds open+ext
// so real gap-chain values (>= -(open+ext)) stay strictly above it.
const (
	Int16Bias   = 256
	SatLimit16  = 32000
	NegInf16    = -(1 << 14)
	MaxGapInt16 = 1 << 13
)

// Int16ParamsOK reports whether the scoring model fits 16-bit lane
// arithmetic: exchange values within the lane bias and gap penalties
// small enough that NegInf16 stays below every reachable gap-chain
// value.
func Int16ParamsOK(p Params) bool {
	if p.Exch == nil {
		return false
	}
	if hi, lo := p.Exch.MaxScore(), p.Exch.MinScore(); hi >= Int16Bias || lo <= -Int16Bias {
		return false
	}
	return p.Gap.Open >= 0 && p.Gap.Ext >= 0 && p.Gap.Open+p.Gap.Ext < MaxGapInt16
}

// Int16Proven reports whether no cell of a matrix whose smaller side is
// dim can reach SatLimit16 under p, so an int16 kernel needs neither
// saturation tracking nor a re-run. A local-alignment cell at (y, x) is
// at most MaxScore*min(y, x): every path to it makes at most min(y, x)
// diagonal steps, each worth at most MaxScore, and gaps only subtract.
// Override masks only zero cells, so the bound holds for any triangle.
func Int16Proven(p Params, dim int) bool {
	m := newRowModel(p)
	return m.int16Proven(dim)
}

// maxGapInt32 bounds open+ext for the int32 row kernel, so its lane
// ramps (up to 8*ext) and gap chains cannot wrap.
const maxGapInt32 = 1 << 24

// RowBlock is the column count of one int16 vector block, and the width
// below which a row is not worth a vector call. A byte block is twice as
// wide.
const RowBlock = 16

// The byte rung's lane arithmetic (DESIGN.md section 15). A byte cell
// holds the true value; the profile holds each exchange value plus the
// model's bias, -MinScore, so that one saturating add and one saturating
// subtract of the bias compute max(0, best + e). A cell whose true value
// reaches 255 - bias reads exactly 255 - bias (the add clips at 255, the
// subtract takes the bias off), so a cell at that level is the flag, and
// a row without one is exact, because the rows above it had none either;
// a pass hands over to the int16 rung at the first row with one. Gap
// chains are clamped at zero instead of running negative: every cell
// takes the max of its chains and the diagonal, which is >= 0, so a
// negative chain value never wins. A model fits the rung when every
// biased exchange value fits a byte, MaxScore + bias <= 255; a wide
// spread only lowers the flag level, which costs hand-overs, not
// exactness.

// rowModel is what choosing a row tier needs to know about a scoring
// model; a Scratch keeps the last one so a run of windows under one
// model scans the exchange matrix once.
type rowModel struct {
	p          Params
	hi         int64 // largest exchange value
	ok16, ok32 bool  // the model fits int16 / int32 lane arithmetic
	ok8        bool  // the model fits the byte rung
	bias8      int32 // the byte rung's profile bias: -MinScore, or 0
}

func newRowModel(p Params) rowModel {
	m := rowModel{p: p}
	if p.Exch == nil {
		return m
	}
	m.hi = int64(p.Exch.MaxScore())
	m.ok16 = Int16ParamsOK(p)
	m.ok32 = p.Gap.Open >= 0 && p.Gap.Ext >= 0 && p.Gap.Open+p.Gap.Ext < maxGapInt32
	m.bias8 = exchBias(p.Exch)
	m.ok8 = m.ok16 && m.hi+int64(m.bias8) <= 255
	return m
}

// ByteParamsOK reports whether the scoring model fits the byte rung:
// it fits int16 lane arithmetic, and every exchange value plus the
// profile's ByteBias fits a byte.
func ByteParamsOK(p Params) bool { return newRowModel(p).ok8 }

// int16Proven is Int16Proven for the model. A largest exchange value of
// zero or less proves it for any size: cells are clamped at zero and
// nothing scores above it.
func (m *rowModel) int16Proven(dim int) bool {
	return m.ok16 && (m.hi <= 0 || m.hi*int64(dim) < SatLimit16)
}

// tier is RowTier for the model.
func (m *rowModel) tier(h, w int) Tier {
	t := ActiveTier()
	if t == TierScalar || w < RowBlock || !m.ok32 {
		return TierScalar
	}
	if t >= TierInt16x16 && m.int16Proven(min(h, w)) {
		return TierInt16x16
	}
	return TierInt32x8
}

// byteRung reports whether a ScoreWindow pass over an h x w window runs
// on the byte rung: the active tier reaches it, the model fits it, and
// the int16 rung, which finishes a flagged pass, would serve the window.
func (m *rowModel) byteRung(h, w int) bool {
	return m.ok8 && ActiveTier() >= TierU8x32 && m.tier(h, w) == TierInt16x16
}

// RowTier is the tier the row kernel runs an h x w matrix (or window)
// on under p: the active tier, narrowed by what the shape and the
// scoring model admit. Rows narrower than one 16-column block stay on
// the Go row; the int16 rung needs the Int16Proven bound over the
// smaller side — no sticky flag, no re-run; everything else the vector
// unit can serve runs the exact int32 twin. The row ladder tops out at
// int16x16: where RowTier says int16x16 and the byte rung is active,
// ScoreWindow runs the pass on the byte rung first (Scratch.Tier says
// which served it).
func RowTier(p Params, h, w int) Tier {
	m := newRowModel(p)
	return m.tier(h, w)
}
