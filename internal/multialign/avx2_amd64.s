#include "textflag.h"

// func rowAVX8(prev, cur, maxY, ex *int32, n int, open, ext int32, mx *int32)
//
// One matrix row over n columns of the 8-lane interleaved Gotoh
// recurrence, 8 exact int32 lanes per ymm register (Figure 7 layout,
// 32-byte column stride). Per column c:
//
//	d    = prev block of column c-1        (diagonal predecessors)
//	v    = max(0, max(d, mx, maxY[c]) + e) (Figure 3 cell)
//	cur[c]  = v
//	g    = d - open
//	mx      = max(g, mx) - ext             (horizontal gap chain)
//	maxY[c] = max(g, maxY[c]) - ext        (vertical gap chains)
//
// The caller guarantees the segment contains no overridden or
// left-border columns, so the loop is branch-free.
TEXT ·rowAVX8(SB), NOSPLIT, $0-56
	MOVQ prev+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ ex+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ mx+48(FP), AX
	TESTQ CX, CX
	JZ   done

	// Every legacy-SSE move into an X register precedes the first
	// 256-bit instruction: once a ymm upper half is dirty, each one costs
	// an SSE/AVX transition (~180 ns per call on the bench host).
	MOVL         open+40(FP), R8
	MOVQ         R8, X5
	MOVL         ext+44(FP), R9
	MOVQ         R9, X6
	VPBROADCASTD X5, Y5 // gap-open penalty in all lanes
	VPBROADCASTD X6, Y6 // gap-extension penalty in all lanes
	VPXOR        Y7, Y7, Y7     // zero, for the clamp
	VMOVDQU      (AX), Y4       // mx carry-in

loop:
	VMOVDQU      (SI), Y0 // d = prev column block
	VMOVDQU      (BX), Y1 // maxY[c]
	VPMAXSD      Y1, Y4, Y2
	VPMAXSD      Y0, Y2, Y2 // max(d, mx, maxY)
	VPBROADCASTD (DX), Y3   // exchange value e
	VPADDD       Y3, Y2, Y2
	VPMAXSD      Y7, Y2, Y2 // clamp at zero
	VMOVDQU      Y2, (DI)   // cur[c] = v
	VPSUBD       Y5, Y0, Y0 // g = d - open
	VPMAXSD      Y0, Y4, Y4
	VPSUBD       Y6, Y4, Y4 // mx = max(g, mx) - ext
	VPMAXSD      Y0, Y1, Y1
	VPSUBD       Y6, Y1, Y1
	VMOVDQU      Y1, (BX)   // maxY[c] = max(g, maxY) - ext
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, BX
	ADDQ         $4, DX
	DECQ         CX
	JNZ          loop

	VMOVDQU Y4, (AX) // mx carry-out

done:
	VZEROUPPER
	RET

// func rowAVX16Pair(a, cur, maxY, exY, exY1 *int16, c0, n int, open, ext int16, mxY, mxY1, d, v *int16, sat *uint32)
//
// Two matrix rows (y, y+1) in one column sweep over the group columns
// c0..c0+n-1, 16 saturating int16 lanes (the 32-byte column stride of
// rowAVX8, twice the matrices). A one-row sweep is memory-bound on the
// prev/cur row traffic once the interleaved rows spill out of L1, and
// pairing halves it — row y's cells live in registers (Y13 carries v_y(c-1), the diagonal input
// of row y+1), while row y+1 is written in place over row y-1 in the
// same buffer `a` (each column loads the old value before storing, so the
// y-1 row keeps serving as row y's diagonal input). a, cur, maxY, exY
// and exY1 point at column c0.
//
// Per column c:
//
//	vY      = max(0, adds(max(dY, mxY, maxY[c]), eY[c])) & border[c]
//	cur[c]  = vY                                            // only if cur != nil
//	gY      = subs(dY, open); mxY = subs(max(gY, mxY), ext)
//	maxY'   = subs(max(gY, maxY[c]), ext)                   // after row y
//	dY      = a[c]                                          // old row y-1 value
//	vY1     = max(0, adds(max(vYprev, mxY1, maxY'), eY1[c])) & border[c]
//	a[c]    = vY1                                           // row y+1 in place
//	gY1     = subs(vYprev, open); mxY1 = subs(max(gY1, mxY1), ext)
//	maxY[c] = subs(max(gY1, maxY'), ext)                    // after row y+1
//	vYprev  = vY
//
// border[c] is block c of ·borderMask16: lane k's matrix starts at
// column k+1, so over columns 1..15 the lanes k >= c lie on or left of
// their boundary column and both rows' cells there are zeroed before
// anything reads them. From column 16 on every lane is inside its matrix
// and the loop runs without the mask. A sweep from column 1 starts from
// zero d and v carries: column 0 is every lane's boundary. The gap
// chains need no mask, since they read only the row above, already
// masked.
//
// d and v point at 16-lane carry blocks: the row y-1 value and row y
// value of the column preceding the span on entry, of the span's last
// column on exit, so a sweep may stop after any column and resume. The
// caller stops a span on each of row y's overridden columns and writes
// its zero into *v before the next span (and into cur, when it keeps row
// y); row y+1's overridden columns are zeroed after the sweep — within a
// row the cells feed only the row below. Row y is stored into cur only
// when the caller captures a bottom row from it; otherwise cur is nil
// and row y never leaves the registers.
//
// Any cell of either row reaching satLimit16 ORs its lane bits into a
// sticky accumulator, whose byte mask is OR-merged into *sat on exit; a
// nonzero *sat obliges the caller to discard the rows and re-run the
// group in int32. Unflagged rows are exact: values stay below
// satLimit16, one exchange add (|e| < Bias) cannot reach 32767, so the
// saturating ops never clip (the negInf16 initials decaying toward
// -32768 always lose the maxima to real values and cannot surface).
// rowAVX16PairFast drops the saturation tracking, for groups where
// Int16Proven established that no cell can reach satLimit16.
//
// The column body is split into its steps so the masked, storing and
// plain loops share them:
//
//	PAIRY    row y's cell into Y2
//	PAIRYGAP row y's gap chains; Y1 = maxY', Y11 = next dY
//	PAIRY1   row y+1's cell into Y0
//	PAIRY1ST row y+1's store, its gap chains, vYprev = vY
//	SATCHK   OR a cell register's saturated lanes into Y10
#define PAIRY(off, eoff) \
	VMOVDQU      off(BX), Y1      \ // maxY[c]
	VPMAXSW      Y1, Y4, Y2       \
	VPMAXSW      Y11, Y2, Y2      \ // max(dY, mxY, maxY)
	VPBROADCASTW eoff(DX), Y3     \ // eY
	VPADDSW      Y3, Y2, Y2       \
	VPMAXSW      Y7, Y2, Y2       // vY

#define PAIRYGAP(off) \
	VPSUBSW      Y5, Y11, Y0      \ // gY = dY - open
	VPMAXSW      Y0, Y4, Y4       \
	VPSUBSW      Y6, Y4, Y4       \ // mxY
	VPMAXSW      Y0, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \ // maxY after row y
	VMOVDQU      off(SI), Y11     // next dY = row y-1 at c, before overwrite

#define PAIRY1(eoff) \
	VPMAXSW      Y1, Y12, Y0      \
	VPMAXSW      Y13, Y0, Y0      \ // max(vYprev, mxY1, maxY')
	VPBROADCASTW eoff(R12), Y3    \ // eY1
	VPADDSW      Y3, Y0, Y0       \
	VPMAXSW      Y7, Y0, Y0       // vY1

#define PAIRY1ST(off) \
	VMOVDQU      Y0, off(SI)      \ // row y+1 over row y-1
	VPSUBSW      Y5, Y13, Y3      \ // gY1 = vYprev - open
	VPMAXSW      Y3, Y12, Y12     \
	VPSUBSW      Y6, Y12, Y12     \ // mxY1
	VPMAXSW      Y3, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \ // maxY after row y+1
	VMOVDQU      Y1, off(BX)      \
	VMOVDQA      Y2, Y13          // vY becomes row y+1's next diagonal

#define SATCHK(r) \
	VPCMPGTW     Y8, r, Y9        \
	VPOR         Y9, Y10, Y10

#define COLPAIRSAT(off, eoff) \
	PAIRY(off, eoff)  \
	SATCHK(Y2)        \
	PAIRYGAP(off)     \
	PAIRY1(eoff)      \
	PAIRY1ST(off)     \
	SATCHK(Y0)

// COLPAIRSAT without the saturation compare+accumulate pairs, for
// provably clean groups.
#define COLPAIR(off, eoff) \
	PAIRY(off, eoff)  \
	PAIRYGAP(off)     \
	PAIRY1(eoff)      \
	PAIRY1ST(off)

// COLPAIRSAT and COLPAIR storing row y's cell into cur too.
#define COLPAIRSATKEEP(off, eoff) \
	PAIRY(off, eoff)    \
	VMOVDQU Y2, off(DI) \
	SATCHK(Y2)          \
	PAIRYGAP(off)       \
	PAIRY1(eoff)        \
	PAIRY1ST(off)       \
	SATCHK(Y0)

#define COLPAIRKEEP(off, eoff) \
	PAIRY(off, eoff)    \
	VMOVDQU Y2, off(DI) \
	PAIRYGAP(off)       \
	PAIRY1(eoff)        \
	PAIRY1ST(off)

// BORDERCOLS leaves in R8 the number of border columns of the span,
// clamp(16-c0, 0, n) for c0 in R13 and n in CX, in CX the columns after
// them, and in R13 the address of column c0's mask block.
#define BORDERCOLS \
	XORQ    R8, R8                \
	MOVQ    $16, R9               \
	SUBQ    R13, R9               \
	CMOVQGT R9, R8                \
	CMPQ    R8, CX                \
	CMOVQGT CX, R8                \
	SUBQ    R8, CX                \
	SHLQ    $5, R13               \
	LEAQ    ·borderMask16(SB), R9 \
	ADDQ    R9, R13

// PAIRSTEP advances the span pointers by cols columns.
#define PAIRSTEP(cols) \
	ADDQ $(32*cols), SI \
	ADDQ $(32*cols), BX \
	ADDQ $(2*cols), DX  \
	ADDQ $(2*cols), R12

TEXT ·rowAVX16Pair(SB), NOSPLIT, $0-104
	MOVQ a+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ exY+24(FP), DX
	MOVQ exY1+32(FP), R12
	MOVQ c0+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ sat+96(FP), R11
	TESTQ CX, CX
	JZ   donep

	// SSE moves first, as in rowAVX8.
	MOVL         $0x7CFF7CFF, R10 // satLimit16-1 word pair
	MOVQ         R10, X8
	MOVWLZX      open+56(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+58(FP), R9
	MOVQ         R9, X6
	VPBROADCASTW X5, Y5
	VPBROADCASTW X6, Y6
	VPXOR        Y7, Y7, Y7
	MOVQ         mxY+64(FP), AX
	VMOVDQU      (AX), Y4  // mxY carry-in
	MOVQ         mxY1+72(FP), R8
	VMOVDQU      (R8), Y12 // mxY1 carry-in
	MOVQ         d+80(FP), R8
	VMOVDQU      (R8), Y11 // dY carry-in (row y-1 at span start - 1)
	MOVQ         v+88(FP), R8
	VMOVDQU      (R8), Y13 // vY carry-in (row y at span start - 1)
	BORDERCOLS
	VPBROADCASTD X8, Y8
	VPXOR        Y10, Y10, Y10
	TESTQ        R8, R8
	JZ           mainp

borderp:
	VMOVDQU (R13), Y14 // border mask of column c
	PAIRY(0, 0)
	VPAND   Y14, Y2, Y2
	SATCHK(Y2)
	TESTQ   DI, DI
	JZ      borderp1
	VMOVDQU Y2, (DI)
	ADDQ    $32, DI

borderp1:
	PAIRYGAP(0)
	PAIRY1(0)
	VPAND   Y14, Y0, Y0
	PAIRY1ST(0)
	SATCHK(Y0)
	PAIRSTEP(1)
	ADDQ    $32, R13
	DECQ    R8
	JNZ     borderp

mainp:
	MOVQ  CX, R8
	SHRQ  $1, R8 // column pairs
	ANDQ  $1, CX
	TESTQ DI, DI
	JNZ   keepp
	TESTQ R8, R8
	JZ    tailp
	PCALIGN $64

loopp:
	COLPAIRSAT(0, 0)
	COLPAIRSAT(32, 2)
	PAIRSTEP(2)
	DECQ R8
	JNZ  loopp

tailp:
	TESTQ CX, CX
	JZ    exitp
	COLPAIRSAT(0, 0)
	JMP   exitp

keepp: // the same loop, storing row y into cur
	TESTQ R8, R8
	JZ    keeptailp

keeploopp:
	COLPAIRSATKEEP(0, 0)
	COLPAIRSATKEEP(32, 2)
	PAIRSTEP(2)
	ADDQ $64, DI
	DECQ R8
	JNZ  keeploopp

keeptailp:
	TESTQ CX, CX
	JZ    exitp
	COLPAIRSATKEEP(0, 0)

exitp:
	VMOVDQU   Y4, (AX) // mxY carry-out
	MOVQ      mxY1+72(FP), R8
	VMOVDQU   Y12, (R8) // mxY1 carry-out
	MOVQ      d+80(FP), R8
	VMOVDQU   Y11, (R8) // dY carry-out (row y-1 at the span's last column)
	MOVQ      v+88(FP), R8
	VMOVDQU   Y13, (R8) // vY carry-out (row y at the span's last column)
	VPMOVMSKB Y10, R8
	MOVL      (R11), R9
	ORL       R8, R9
	MOVL      R9, (R11) // *sat |= mask

donep:
	VZEROUPPER
	RET

// func rowAVX16PairFast(a, cur, maxY, exY, exY1 *int16, c0, n int, open, ext int16, mxY, mxY1, d, v *int16)
TEXT ·rowAVX16PairFast(SB), NOSPLIT, $0-96
	MOVQ a+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ exY+24(FP), DX
	MOVQ exY1+32(FP), R12
	MOVQ c0+40(FP), R13
	MOVQ n+48(FP), CX
	TESTQ CX, CX
	JZ   donepf

	// SSE moves first, as in rowAVX8.
	MOVWLZX      open+56(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+58(FP), R9
	MOVQ         R9, X6
	VPBROADCASTW X5, Y5
	VPBROADCASTW X6, Y6
	VPXOR        Y7, Y7, Y7
	MOVQ         mxY+64(FP), AX
	VMOVDQU      (AX), Y4  // mxY carry-in
	MOVQ         mxY1+72(FP), R8
	VMOVDQU      (R8), Y12 // mxY1 carry-in
	MOVQ         d+80(FP), R8
	VMOVDQU      (R8), Y11 // dY carry-in (row y-1 at span start - 1)
	MOVQ         v+88(FP), R8
	VMOVDQU      (R8), Y13 // vY carry-in (row y at span start - 1)
	BORDERCOLS
	TESTQ R8, R8
	JZ    mainpf

borderpf:
	VMOVDQU (R13), Y14
	PAIRY(0, 0)
	VPAND   Y14, Y2, Y2
	TESTQ   DI, DI
	JZ      borderpf1
	VMOVDQU Y2, (DI)
	ADDQ    $32, DI

borderpf1:
	PAIRYGAP(0)
	PAIRY1(0)
	VPAND   Y14, Y0, Y0
	PAIRY1ST(0)
	PAIRSTEP(1)
	ADDQ    $32, R13
	DECQ    R8
	JNZ     borderpf

mainpf:
	MOVQ  CX, R8
	SHRQ  $1, R8
	ANDQ  $1, CX
	TESTQ DI, DI
	JNZ   keeppf
	TESTQ R8, R8
	JZ    tailpf
	PCALIGN $64

looppf:
	COLPAIR(0, 0)
	COLPAIR(32, 2)
	PAIRSTEP(2)
	DECQ R8
	JNZ  looppf

tailpf:
	TESTQ CX, CX
	JZ    exitpf
	COLPAIR(0, 0)
	JMP   exitpf

keeppf:
	TESTQ R8, R8
	JZ    keeptailpf

keeplooppf:
	COLPAIRKEEP(0, 0)
	COLPAIRKEEP(32, 2)
	PAIRSTEP(2)
	ADDQ $64, DI
	DECQ R8
	JNZ  keeplooppf

keeptailpf:
	TESTQ CX, CX
	JZ    exitpf
	COLPAIRKEEP(0, 0)

exitpf:
	VMOVDQU Y4, (AX)
	MOVQ    mxY1+72(FP), R8
	VMOVDQU Y12, (R8)
	MOVQ    d+80(FP), R8
	VMOVDQU Y11, (R8)
	MOVQ    v+88(FP), R8
	VMOVDQU Y13, (R8)

donepf:
	VZEROUPPER
	RET

// func rowU8Pair(a, cur, maxY, exY, exY1 *uint8, c0, n int, open, ext, bias uint8, mxY, mxY1, d, v *uint8, flag *uint32)
//
// rowAVX16Pair on the byte rung: 32 neighbouring matrices per ymm
// register, one unsigned byte lane each, at the same 32-byte column
// stride, so a sweep moves the same bytes per column as the int16 pair
// and carries twice the lanes. The recurrence is rowAVX16Pair's with
// one-for-one byte ops (DESIGN.md section 15):
//
//	vY      = subus(addus(maxu(dY, mxY, maxY[c]), eY[c]+bias), bias) & border[c]
//	gY      = subus(dY, open); mxY = subus(maxu(gY, mxY), ext)
//	maxY'   = subus(maxu(gY, maxY[c]), ext)
//
// and row y+1 likewise, from vYprev, mxY1 and maxY'.
//
// exY and exY1 are rows of align's biased byte profile (each exchange
// value plus bias), so the add and the subtract of the bias compute
// max(0, best + e) for every cell whose true value stays below
// 255 - bias, and a cell that reaches that level reads exactly
// 255 - bias. The gap chains clamp at 0 instead of running negative:
// the diagonal, >= 0, takes part in every cell's max, so a chain at or
// below 0 never wins. open and ext come saturated at 255, which the
// clamp makes exact. border[c] is block c of ·borderMask8: over columns
// 1..31 the lanes k >= c are zeroed. Y10 keeps the running maximum of
// every cell register, after the mask; on exit the lanes whose maximum
// reached 255 - bias OR their bits into *flag, and a nonzero flag
// obliges the caller to discard the rows. Carries, the in-place row
// y+1, the optional store of row y into cur and the span contract are
// rowAVX16Pair's.
#define PAIRY8(off, eoff) \
	VMOVDQU      off(BX), Y1      \ // maxY[c]
	VPMAXUB      Y1, Y4, Y2       \
	VPMAXUB      Y11, Y2, Y2      \ // max(dY, mxY, maxY)
	VPBROADCASTB eoff(DX), Y3     \ // eY + bias
	VPADDUSB     Y3, Y2, Y2       \
	VPSUBUSB     Y7, Y2, Y2       // vY

#define PAIRYGAP8(off) \
	VPSUBUSB     Y5, Y11, Y0      \ // gY = dY - open
	VPMAXUB      Y0, Y4, Y4       \
	VPSUBUSB     Y6, Y4, Y4       \ // mxY
	VPMAXUB      Y0, Y1, Y1       \
	VPSUBUSB     Y6, Y1, Y1       \ // maxY after row y
	VMOVDQU      off(SI), Y11     // next dY = row y-1 at c, before overwrite

#define PAIRY18(eoff) \
	VPMAXUB      Y1, Y12, Y0      \
	VPMAXUB      Y13, Y0, Y0      \ // max(vYprev, mxY1, maxY')
	VPBROADCASTB eoff(R12), Y3    \ // eY1 + bias
	VPADDUSB     Y3, Y0, Y0       \
	VPSUBUSB     Y7, Y0, Y0       // vY1

#define PAIRY1ST8(off) \
	VMOVDQU      Y0, off(SI)      \ // row y+1 over row y-1
	VPSUBUSB     Y5, Y13, Y3      \ // gY1 = vYprev - open
	VPMAXUB      Y3, Y12, Y12     \
	VPSUBUSB     Y6, Y12, Y12     \ // mxY1
	VPMAXUB      Y3, Y1, Y1       \
	VPSUBUSB     Y6, Y1, Y1       \ // maxY after row y+1
	VMOVDQU      Y1, off(BX)      \
	VMOVDQA      Y2, Y13          // vY becomes row y+1's next diagonal

#define PEAK8(r) \
	VPMAXUB      r, Y10, Y10

#define COLPAIR8(off, eoff) \
	PAIRY8(off, eoff) \
	PEAK8(Y2)         \
	PAIRYGAP8(off)    \
	PAIRY18(eoff)     \
	PAIRY1ST8(off)    \
	PEAK8(Y0)

#define COLPAIR8KEEP(off, eoff) \
	PAIRY8(off, eoff)   \
	VMOVDQU Y2, off(DI) \
	PEAK8(Y2)           \
	PAIRYGAP8(off)      \
	PAIRY18(eoff)       \
	PAIRY1ST8(off)      \
	PEAK8(Y0)

// BORDERCOLS8 is BORDERCOLS for 32 lanes: clamp(32-c0, 0, n) border
// columns in R8, the rest in CX, column c0's ·borderMask8 block in R13.
#define BORDERCOLS8 \
	XORQ    R8, R8               \
	MOVQ    $32, R9              \
	SUBQ    R13, R9              \
	CMOVQGT R9, R8               \
	CMPQ    R8, CX               \
	CMOVQGT CX, R8               \
	SUBQ    R8, CX               \
	SHLQ    $5, R13              \
	LEAQ    ·borderMask8(SB), R9 \
	ADDQ    R9, R13

#define PAIRSTEP8(cols) \
	ADDQ $(32*cols), SI \
	ADDQ $(32*cols), BX \
	ADDQ $cols, DX      \
	ADDQ $cols, R12

// FLAG8 ORs into *R11 the byte mask of the lanes of Y10 at the flag
// level: adding the bias takes a lane at 255 - bias to 255.
#define FLAG8 \
	VPADDUSB  Y7, Y10, Y10 \
	VPCMPEQB  Y9, Y9, Y9   \
	VPCMPEQB  Y9, Y10, Y10 \
	VPMOVMSKB Y10, R8      \
	MOVL      (R11), R9    \
	ORL       R8, R9       \
	MOVL      R9, (R11)

TEXT ·rowU8Pair(SB), NOSPLIT, $0-104
	MOVQ a+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ exY+24(FP), DX
	MOVQ exY1+32(FP), R12
	MOVQ c0+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ flag+96(FP), R11
	TESTQ CX, CX
	JZ   donep8

	// SSE moves first, as in rowAVX8.
	MOVBLZX      open+56(FP), R8
	MOVQ         R8, X5
	MOVBLZX      ext+57(FP), R9
	MOVQ         R9, X6
	MOVBLZX      bias+58(FP), R10
	MOVQ         R10, X7
	VPBROADCASTB X5, Y5
	VPBROADCASTB X6, Y6
	VPBROADCASTB X7, Y7
	MOVQ         mxY+64(FP), AX
	VMOVDQU      (AX), Y4  // mxY carry-in
	MOVQ         mxY1+72(FP), R8
	VMOVDQU      (R8), Y12 // mxY1 carry-in
	MOVQ         d+80(FP), R8
	VMOVDQU      (R8), Y11 // dY carry-in
	MOVQ         v+88(FP), R8
	VMOVDQU      (R8), Y13 // vY carry-in
	VPXOR        Y10, Y10, Y10 // the sweep's cell maximum
	BORDERCOLS8
	TESTQ        R8, R8
	JZ           mainp8

borderp8:
	VMOVDQU (R13), Y14 // border mask of column c
	PAIRY8(0, 0)
	VPAND   Y14, Y2, Y2
	PEAK8(Y2)
	TESTQ   DI, DI
	JZ      borderp81
	VMOVDQU Y2, (DI)
	ADDQ    $32, DI

borderp81:
	PAIRYGAP8(0)
	PAIRY18(0)
	VPAND   Y14, Y0, Y0
	PAIRY1ST8(0)
	PEAK8(Y0)
	PAIRSTEP8(1)
	ADDQ    $32, R13
	DECQ    R8
	JNZ     borderp8

mainp8:
	MOVQ  CX, R8
	SHRQ  $1, R8 // column pairs
	ANDQ  $1, CX
	TESTQ DI, DI
	JNZ   keepp8
	TESTQ R8, R8
	JZ    tailp8
	PCALIGN $64

loopp8:
	COLPAIR8(0, 0)
	COLPAIR8(32, 1)
	PAIRSTEP8(2)
	DECQ R8
	JNZ  loopp8

tailp8:
	TESTQ CX, CX
	JZ    exitp8
	COLPAIR8(0, 0)
	JMP   exitp8

keepp8: // the same loop, storing row y into cur
	TESTQ R8, R8
	JZ    keeptailp8

keeploopp8:
	COLPAIR8KEEP(0, 0)
	COLPAIR8KEEP(32, 1)
	PAIRSTEP8(2)
	ADDQ $64, DI
	DECQ R8
	JNZ  keeploopp8

keeptailp8:
	TESTQ CX, CX
	JZ    exitp8
	COLPAIR8KEEP(0, 0)

exitp8:
	VMOVDQU Y4, (AX) // mxY carry-out
	MOVQ    mxY1+72(FP), R8
	VMOVDQU Y12, (R8) // mxY1 carry-out
	MOVQ    d+80(FP), R8
	VMOVDQU Y11, (R8) // dY carry-out
	MOVQ    v+88(FP), R8
	VMOVDQU Y13, (R8) // vY carry-out
	FLAG8

donep8:
	VZEROUPPER
	RET
