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

// func rowAVX16(prev, cur, maxY, ex *int16, n int, open, ext int16, mx *int16, sat *uint32)
//
// One matrix row over n columns of the 16-lane interleaved Gotoh
// recurrence, 16 saturating int16 lanes per ymm register (same 32-byte
// column stride as rowAVX8, twice the matrices). The recurrence is the
// one rowAVX8 computes, in saturating int16 arithmetic:
//
//	d    = prev block of column c-1
//	v    = max(0, adds(max(d, mx, maxY[c]), e))
//	cur[c]  = v
//	g    = subs(d, open)
//	mx      = subs(max(g, mx), ext)
//	maxY[c] = subs(max(g, maxY[c]), ext)
//
// Any v reaching satLimit16 ORs lane bits into the sticky accumulator;
// its byte mask is OR-merged into *sat on exit, and a nonzero *sat
// obliges the caller to discard the rows and re-run the group in int32.
// Unflagged rows are exact: values stay below satLimit16, one exchange
// add (|e| < Bias) cannot reach 32767, so the saturating ops never clip
// (the only exception, the negInf16 initials decaying toward -32768,
// always lose the maxima to real values and cannot surface).
//
// The caller guarantees the segment contains no overridden columns.
// Left-border columns may be included: their gap chains depend only on
// prev, so the Go driver just re-zeroes the affected lane cells after
// the row.
// The column body is macro-expanded at four fixed offsets per iteration
// (indexed addressing, one pointer bump per quad) because the loop is
// issue-bound: per-column pointer/counter overhead is a third of the
// straight-line instruction count.
#define COL16SAT(off, eoff) \
	VMOVDQU      off(SI), Y0     \ // d = prev column block
	VMOVDQU      off(BX), Y1     \ // maxY[c]
	VPMAXSW      Y1, Y4, Y2      \
	VPMAXSW      Y0, Y2, Y2      \ // max(d, mx, maxY)
	VPBROADCASTW eoff(DX), Y3    \ // exchange value e
	VPADDSW      Y3, Y2, Y2      \ // saturating add
	VPMAXSW      Y7, Y2, Y2      \ // clamp at zero
	VMOVDQU      Y2, off(DI)     \ // cur[c] = v
	VPCMPGTW     Y8, Y2, Y9      \ // v >= satLimit16 per lane
	VPOR         Y9, Y10, Y10    \
	VPSUBSW      Y5, Y0, Y0      \ // g = d - open
	VPMAXSW      Y0, Y4, Y4      \
	VPSUBSW      Y6, Y4, Y4      \ // mx = max(g, mx) - ext
	VPMAXSW      Y0, Y1, Y1      \
	VPSUBSW      Y6, Y1, Y1      \
	VMOVDQU      Y1, off(BX)     // maxY[c] = max(g, maxY) - ext

TEXT ·rowAVX16(SB), NOSPLIT, $0-64
	MOVQ prev+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ ex+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ mx+48(FP), AX
	MOVQ sat+56(FP), R11
	TESTQ CX, CX
	JZ   done16

	// SSE moves first, as in rowAVX8.
	MOVWLZX      open+40(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+42(FP), R9
	MOVQ         R9, X6
	MOVL         $0x7CFF7CFF, R10   // satLimit16-1 = 31999 word pair
	MOVQ         R10, X8
	VPBROADCASTW X5, Y5             // gap-open penalty in all lanes
	VPBROADCASTW X6, Y6             // gap-extension penalty in all lanes
	VPXOR        Y7, Y7, Y7         // zero, for the clamp
	VPBROADCASTD X8, Y8             // saturation threshold in all lanes
	VPXOR        Y10, Y10, Y10      // sticky saturation accumulator
	VMOVDQU      (AX), Y4           // mx carry-in

	MOVQ CX, R8
	SHRQ $2, R8 // quad count
	ANDQ $3, CX // tail columns
	TESTQ R8, R8
	JZ   tail16

quad16:
	COL16SAT(0, 0)
	COL16SAT(32, 2)
	COL16SAT(64, 4)
	COL16SAT(96, 6)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, BX
	ADDQ $8, DX
	DECQ R8
	JNZ  quad16

	TESTQ CX, CX
	JZ   exit16

tail16:
	COL16SAT(0, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $2, DX
	DECQ CX
	JNZ  tail16

exit16:
	VMOVDQU   Y4, (AX)  // mx carry-out
	VPMOVMSKB Y10, R8   // byte mask of saturated lanes
	MOVL      (R11), R9
	ORL       R8, R9
	MOVL      R9, (R11) // *sat |= mask

done16:
	VZEROUPPER
	RET

// func rowAVX16Fast(prev, cur, maxY, ex *int16, n int, open, ext int16, mx *int16)
//
// rowAVX16 without saturation tracking, for groups where Int16Proven
// established that no cell can reach satLimit16: the compare+accumulate
// pair per column is dropped, which is the common case for realistic
// scoring models (BLOSUM62 proves clean up to ~2900-residue matrices).
// func rowAVX16Pair(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16, sat *uint32)
//
// Two matrix rows (y, y+1) in one column sweep, 16 saturating int16
// lanes. This is the throughput kernel: the single-row kernels are
// memory-bound on the prev/cur row traffic once the interleaved rows
// spill out of L1, and pairing halves it — row y's cells live only in
// registers (Y13 carries v_y(c-1), the diagonal input of row y+1) and
// are never stored, while row y+1 is written in place over row y-1 in
// the same buffer `a` (each column loads the old value before storing,
// so the y-1 row keeps serving as row y's diagonal input).
//
// Per column c:
//
//	vY      = max(0, adds(max(dY, mxY, maxY[c]), eY[c]))    // in-register only
//	gY      = subs(dY, open); mxY = subs(max(gY, mxY), ext)
//	maxY'   = subs(max(gY, maxY[c]), ext)                   // after row y
//	dY      = a[c]                                          // old row y-1 value
//	vY1     = max(0, adds(max(vYprev, mxY1, maxY'), eY1[c]))
//	a[c]    = vY1                                           // row y+1 in place
//	gY1     = subs(vYprev, open); mxY1 = subs(max(gY1, mxY1), ext)
//	maxY[c] = subs(max(gY1, maxY'), ext)                    // after row y+1
//	vYprev  = vY
//
// d and v point at 16-lane carry blocks: the row y-1 value and row y
// value of the column preceding the span on entry, of the span's last
// column on exit, so a sweep may stop after any column and resume (the
// caller computes the first columns with the single-row kernel — the
// left-border lanes need fixups the pair sweep cannot apply, because row
// y's cells feed row y+1 in-register). Saturation of either row's cells
// accumulates into *sat exactly as in rowAVX16. The caller guarantees
// the span contains no left-border columns; it may end on one of row
// y's overridden columns, whose zero the caller then writes into *v
// before the next span, and row y+1's overridden columns are zeroed
// after the sweep — within a row the cells feed only the row below.
#define COLPAIRSAT(off, eoff) \
	VMOVDQU      off(BX), Y1      \ // maxY[c]
	VPMAXSW      Y1, Y4, Y2       \
	VPMAXSW      Y11, Y2, Y2      \ // max(dY, mxY, maxY)
	VPBROADCASTW eoff(DX), Y3     \ // eY
	VPADDSW      Y3, Y2, Y2       \
	VPMAXSW      Y7, Y2, Y2       \ // vY (in-register only)
	VPCMPGTW     Y8, Y2, Y9       \
	VPOR         Y9, Y10, Y10     \
	VPSUBSW      Y5, Y11, Y0      \ // gY = dY - open
	VPMAXSW      Y0, Y4, Y4       \
	VPSUBSW      Y6, Y4, Y4       \ // mxY
	VPMAXSW      Y0, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \ // maxY after row y
	VMOVDQU      off(SI), Y11     \ // next dY = row y-1 at c, before overwrite
	VPMAXSW      Y1, Y12, Y0      \
	VPMAXSW      Y13, Y0, Y0      \ // max(vYprev, mxY1, maxY')
	VPBROADCASTW eoff(R12), Y3    \ // eY1
	VPADDSW      Y3, Y0, Y0       \
	VPMAXSW      Y7, Y0, Y0       \ // vY1
	VMOVDQU      Y0, off(SI)      \ // row y+1 over row y-1
	VPCMPGTW     Y8, Y0, Y9       \
	VPOR         Y9, Y10, Y10     \
	VPSUBSW      Y5, Y13, Y3      \ // gY1 = vYprev - open
	VPMAXSW      Y3, Y12, Y12     \
	VPSUBSW      Y6, Y12, Y12     \ // mxY1
	VPMAXSW      Y3, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \ // maxY after row y+1
	VMOVDQU      Y1, off(BX)      \
	VMOVDQA      Y2, Y13          // vY becomes row y+1's next diagonal

TEXT ·rowAVX16Pair(SB), NOSPLIT, $0-88
	MOVQ a+0(FP), SI
	MOVQ maxY+8(FP), BX
	MOVQ exY+16(FP), DX
	MOVQ exY1+24(FP), R12
	MOVQ n+32(FP), CX
	MOVQ sat+80(FP), R11
	TESTQ CX, CX
	JZ   donep

	// SSE moves first, as in rowAVX8.
	MOVWLZX      open+40(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+42(FP), R9
	MOVQ         R9, X6
	MOVL         $0x7CFF7CFF, R10 // satLimit16-1 word pair
	MOVQ         R10, X8
	VPBROADCASTW X5, Y5
	VPBROADCASTW X6, Y6
	VPXOR        Y7, Y7, Y7
	VPBROADCASTD X8, Y8
	VPXOR        Y10, Y10, Y10
	MOVQ         mxY+48(FP), AX
	VMOVDQU      (AX), Y4  // mxY carry-in
	MOVQ         mxY1+56(FP), R8
	VMOVDQU      (R8), Y12 // mxY1 carry-in
	MOVQ         d+64(FP), R8
	VMOVDQU      (R8), Y11 // dY carry-in (row y-1 at span start - 1)
	MOVQ         v+72(FP), R8
	VMOVDQU      (R8), Y13 // vY carry-in (row y at span start - 1)

	MOVQ CX, R8
	SHRQ $1, R8 // column pairs
	ANDQ $1, CX
	TESTQ R8, R8
	JZ   tailp

loopp:
	COLPAIRSAT(0, 0)
	COLPAIRSAT(32, 2)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $4, DX
	ADDQ $4, R12
	DECQ R8
	JNZ  loopp

	TESTQ CX, CX
	JZ   exitp

tailp:
	COLPAIRSAT(0, 0)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $2, DX
	ADDQ $2, R12
	DECQ CX
	JNZ  tailp

exitp:
	VMOVDQU   Y4, (AX) // mxY carry-out
	MOVQ      mxY1+56(FP), R8
	VMOVDQU   Y12, (R8) // mxY1 carry-out
	MOVQ      d+64(FP), R8
	VMOVDQU   Y11, (R8) // dY carry-out (row y-1 at the span's last column)
	MOVQ      v+72(FP), R8
	VMOVDQU   Y13, (R8) // vY carry-out (row y at the span's last column)
	VPMOVMSKB Y10, R8
	MOVL      (R11), R9
	ORL       R8, R9
	MOVL      R9, (R11) // *sat |= mask

donep:
	VZEROUPPER
	RET

// COLPAIRSAT without the saturation compare+accumulate pairs, for
// provably clean groups.
#define COLPAIR(off, eoff) \
	VMOVDQU      off(BX), Y1      \
	VPMAXSW      Y1, Y4, Y2       \
	VPMAXSW      Y11, Y2, Y2      \
	VPBROADCASTW eoff(DX), Y3     \
	VPADDSW      Y3, Y2, Y2       \
	VPMAXSW      Y7, Y2, Y2       \
	VPSUBSW      Y5, Y11, Y0      \
	VPMAXSW      Y0, Y4, Y4       \
	VPSUBSW      Y6, Y4, Y4       \
	VPMAXSW      Y0, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \
	VMOVDQU      off(SI), Y11     \
	VPMAXSW      Y1, Y12, Y0      \
	VPMAXSW      Y13, Y0, Y0      \
	VPBROADCASTW eoff(R12), Y3    \
	VPADDSW      Y3, Y0, Y0       \
	VPMAXSW      Y7, Y0, Y0       \
	VMOVDQU      Y0, off(SI)      \
	VPSUBSW      Y5, Y13, Y3      \
	VPMAXSW      Y3, Y12, Y12     \
	VPSUBSW      Y6, Y12, Y12     \
	VPMAXSW      Y3, Y1, Y1       \
	VPSUBSW      Y6, Y1, Y1       \
	VMOVDQU      Y1, off(BX)      \
	VMOVDQA      Y2, Y13

// func rowAVX16PairFast(a, maxY, exY, exY1 *int16, n int, open, ext int16, mxY, mxY1, d, v *int16)
TEXT ·rowAVX16PairFast(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), SI
	MOVQ maxY+8(FP), BX
	MOVQ exY+16(FP), DX
	MOVQ exY1+24(FP), R12
	MOVQ n+32(FP), CX
	TESTQ CX, CX
	JZ   donepf

	// SSE moves first, as in rowAVX8.
	MOVWLZX      open+40(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+42(FP), R9
	MOVQ         R9, X6
	VPBROADCASTW X5, Y5
	VPBROADCASTW X6, Y6
	VPXOR        Y7, Y7, Y7
	MOVQ         mxY+48(FP), AX
	VMOVDQU      (AX), Y4
	MOVQ         mxY1+56(FP), R8
	VMOVDQU      (R8), Y12
	MOVQ         d+64(FP), R8
	VMOVDQU      (R8), Y11
	MOVQ         v+72(FP), R8
	VMOVDQU      (R8), Y13

	MOVQ CX, R8
	SHRQ $1, R8
	ANDQ $1, CX
	TESTQ R8, R8
	JZ   tailpf

looppf:
	COLPAIR(0, 0)
	COLPAIR(32, 2)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $4, DX
	ADDQ $4, R12
	DECQ R8
	JNZ  looppf

	TESTQ CX, CX
	JZ   exitpf

tailpf:
	COLPAIR(0, 0)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $2, DX
	ADDQ $2, R12
	DECQ CX
	JNZ  tailpf

exitpf:
	VMOVDQU Y4, (AX)
	MOVQ    mxY1+56(FP), R8
	VMOVDQU Y12, (R8)
	MOVQ    d+64(FP), R8
	VMOVDQU Y11, (R8)
	MOVQ    v+72(FP), R8
	VMOVDQU Y13, (R8)

donepf:
	VZEROUPPER
	RET

// COL16SAT without the saturation compare+accumulate pair.
#define COL16(off, eoff) \
	VMOVDQU      off(SI), Y0     \
	VMOVDQU      off(BX), Y1     \
	VPMAXSW      Y1, Y4, Y2      \
	VPMAXSW      Y0, Y2, Y2      \
	VPBROADCASTW eoff(DX), Y3    \
	VPADDSW      Y3, Y2, Y2      \
	VPMAXSW      Y7, Y2, Y2      \
	VMOVDQU      Y2, off(DI)     \
	VPSUBSW      Y5, Y0, Y0      \
	VPMAXSW      Y0, Y4, Y4      \
	VPSUBSW      Y6, Y4, Y4      \
	VPMAXSW      Y0, Y1, Y1      \
	VPSUBSW      Y6, Y1, Y1      \
	VMOVDQU      Y1, off(BX)

TEXT ·rowAVX16Fast(SB), NOSPLIT, $0-56
	MOVQ prev+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ maxY+16(FP), BX
	MOVQ ex+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ mx+48(FP), AX
	TESTQ CX, CX
	JZ   donef

	// SSE moves first, as in rowAVX8.
	MOVWLZX      open+40(FP), R8
	MOVQ         R8, X5
	MOVWLZX      ext+42(FP), R9
	MOVQ         R9, X6
	VPBROADCASTW X5, Y5     // gap-open penalty in all lanes
	VPBROADCASTW X6, Y6     // gap-extension penalty in all lanes
	VPXOR        Y7, Y7, Y7 // zero, for the clamp
	VMOVDQU      (AX), Y4   // mx carry-in

	MOVQ CX, R8
	SHRQ $2, R8 // quad count
	ANDQ $3, CX // tail columns
	TESTQ R8, R8
	JZ   tailf

quadf:
	COL16(0, 0)
	COL16(32, 2)
	COL16(64, 4)
	COL16(96, 6)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, BX
	ADDQ $8, DX
	DECQ R8
	JNZ  quadf

	TESTQ CX, CX
	JZ   exitf

tailf:
	COL16(0, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $2, DX
	DECQ CX
	JNZ  tailf

exitf:
	VMOVDQU Y4, (AX) // mx carry-out

donef:
	VZEROUPPER
	RET
