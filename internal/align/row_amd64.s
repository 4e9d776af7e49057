#include "textflag.h"

// VPSHUFB control: every word of a 128-bit half takes that half's last
// word (bytes 14, 15).
DATA lastWord<>+0(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+8(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+16(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+24(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL lastWord<>(SB), RODATA|NOPTR, $32

// VPSHUFB control: every byte of a 128-bit half takes that half's last
// byte.
DATA lastByte<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lastByte<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lastByte<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lastByte<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL lastByte<>(SB), RODATA|NOPTR, $32

// Lane distances 1..16 as dwords, in the order VPACKSSDW wants its two
// sources so that the packed words come out 1..16.
DATA dist16a<>+0(SB)/4, $1
DATA dist16a<>+4(SB)/4, $2
DATA dist16a<>+8(SB)/4, $3
DATA dist16a<>+12(SB)/4, $4
DATA dist16a<>+16(SB)/4, $9
DATA dist16a<>+20(SB)/4, $10
DATA dist16a<>+24(SB)/4, $11
DATA dist16a<>+28(SB)/4, $12
GLOBL dist16a<>(SB), RODATA|NOPTR, $32
DATA dist16b<>+0(SB)/4, $5
DATA dist16b<>+4(SB)/4, $6
DATA dist16b<>+8(SB)/4, $7
DATA dist16b<>+12(SB)/4, $8
DATA dist16b<>+16(SB)/4, $13
DATA dist16b<>+20(SB)/4, $14
DATA dist16b<>+24(SB)/4, $15
DATA dist16b<>+28(SB)/4, $16
GLOBL dist16b<>(SB), RODATA|NOPTR, $32

// Lane distances 1..8 for the int32 kernel.
DATA dist8<>+0(SB)/4, $1
DATA dist8<>+4(SB)/4, $2
DATA dist8<>+8(SB)/4, $3
DATA dist8<>+12(SB)/4, $4
DATA dist8<>+16(SB)/4, $5
DATA dist8<>+20(SB)/4, $6
DATA dist8<>+24(SB)/4, $7
DATA dist8<>+28(SB)/4, $8
GLOBL dist8<>(SB), RODATA|NOPTR, $32

// func scan16(prev, cur, maxY, prof *int16, codes *byte, rows, stride int, out32 *int32, nb int, open, ext int16)
//
// rows matrix rows of the Figure 3 recurrence over nb blocks of 16
// neighbouring columns, 16 saturating int16 lanes per ymm register.
// Column i of a row needs, from the row above P only,
//
//	d     = P[i]                                  (diagonal)
//	mx[i] = max over j < i of P[j] - open - (i-j)*ext   (MaxX)
//	v     = max(0, max(d, mx[i], maxY[i]) + e[i])
//	maxY[i] = max(d - open, maxY[i]) - ext
//
// so everything is element-wise except mx, a max-plus prefix scan of P.
// Per block: T = P[i-1] - open - ext is each column's distance-1
// candidate; three shift-subtract-max steps (VPSLLDQ by 1, 2, 4 words,
// minus 1, 2, 4 ext) scan each 128-bit half, the low half's last lane is
// handed to the high half minus (1..8)*ext, and the carry — mx of the
// column before the block, kept broadcast in Y5 — joins minus
// (1..16)*ext. Lanes a shift vacates hold 0 minus a positive multiple of
// ext: any candidate <= 0 is harmless because d >= 0 always takes part
// in the max. The ext multiples are built with saturating arithmetic, so
// a ramp past 32767 clips there and still drives its candidate below 0.
//
// prev points one element before the boundary column of the row above
// (P[-1], kept 0), cur at column 0's cell of this row; the two buffers
// swap after every row, so the last row ends in cur when rows is odd.
// Row y reads its exchange values at prof + codes[y-1]*stride bytes.
// out32, when not nil, receives every row widened to int32 as well
// (traceback matrices), rows laid out as the traceback arena's: the next
// row starts two int32 (pad, boundary) past the end of this one. The
// constants are built once per call. Prologue order matters: every move
// into an X register precedes the first 256-bit instruction, or each
// call pays an SSE/AVX transition.
TEXT ·scan16(SB), NOSPLIT, $0-76
	MOVQ    prev+0(FP), R11
	MOVQ    cur+8(FP), R12
	MOVQ    prof+24(FP), R8
	MOVQ    codes+32(FP), R9
	MOVQ    rows+40(FP), R10
	MOVQ    out32+56(FP), R13
	MOVWLZX open+72(FP), AX
	MOVWLZX ext+74(FP), CX
	LEAL    (AX)(CX*1), DX
	VMOVD   AX, X14
	VMOVD   CX, X13
	VMOVD   DX, X12
	MOVQ    nb+64(FP), CX
	TESTQ   CX, CX
	JZ      done16
	TESTQ   R10, R10
	JZ      done16

	VPBROADCASTD X13, Y0                 // ext as dwords
	VPBROADCASTW X14, Y14                // open
	VPBROADCASTW X13, Y13                // ext
	VPBROADCASTW X12, Y12                // open + ext
	VPADDSW      Y13, Y13, Y11           // 2 ext
	VPADDSW      Y11, Y11, Y10           // 4 ext
	VPMULLD      dist16a<>(SB), Y0, Y1
	VPMULLD      dist16b<>(SB), Y0, Y2
	VPACKSSDW    Y2, Y1, Y8              // (1..16) ext, clipped at 32767
	VPERM2I128   $0x08, Y8, Y8, Y9       // high half (1..8) ext, low half 0
	VMOVDQU      lastWord<>(SB), Y6
	VPERM2I128   $0x11, Y8, Y8, Y7
	VPSHUFB      Y6, Y7, Y7              // 16 ext
	VPXOR        Y15, Y15, Y15           // zero, for the clamp

row16:
	MOVQ     R11, SI                     // the row above
	MOVQ     R12, DI                     // this row
	MOVQ     maxY+16(FP), BX
	MOVBQZX  (R9), DX
	IMULQ    stride+48(FP), DX
	ADDQ     R8, DX                      // this row's exchange values
	MOVQ     nb+64(FP), CX
	VPCMPEQW Y5, Y5, Y5
	VPSLLW   $15, Y5, Y5                 // carry-in: -32768, MaxX of column 0
	PCALIGN $64

loop16:
	VMOVDQU    (SI), Y0                  // P[i-1]
	VMOVDQU    2(SI), Y1                 // d = P[i]
	VPSUBSW    Y12, Y0, Y0               // T
	VPSLLDQ    $2, Y0, Y2
	VPSUBSW    Y13, Y2, Y2
	VPMAXSW    Y2, Y0, Y0
	VPSLLDQ    $4, Y0, Y2
	VPSUBSW    Y11, Y2, Y2
	VPMAXSW    Y2, Y0, Y0
	VPSLLDQ    $8, Y0, Y2
	VPSUBSW    Y10, Y2, Y2
	VPMAXSW    Y2, Y0, Y0                // scanned within each half
	VPERM2I128 $0x08, Y0, Y0, Y2
	VPSHUFB    Y6, Y2, Y2                // low half's last lane, in the high half
	VPSUBSW    Y9, Y2, Y2
	VPMAXSW    Y2, Y0, Y0                // scanned across the block
	VPSUBSW    Y8, Y5, Y2
	VPMAXSW    Y2, Y0, Y2                // mx = max(block scan, decayed carry)
	VPERM2I128 $0x11, Y0, Y0, Y3
	VPSHUFB    Y6, Y3, Y3                // block scan's last lane, broadcast
	VPSUBSW    Y7, Y5, Y5
	VPMAXSW    Y3, Y5, Y5                // carry for the next block
	VMOVDQU    (BX), Y3                  // maxY
	VPMAXSW    Y1, Y2, Y2
	VPMAXSW    Y3, Y2, Y2                // max(d, mx, maxY)
	VPADDSW    (DX), Y2, Y2              // + e
	VPMAXSW    Y15, Y2, Y2               // clamp at zero
	VMOVDQU    Y2, (DI)
	VPSUBSW    Y14, Y1, Y1               // g = d - open
	VPMAXSW    Y3, Y1, Y1
	VPSUBSW    Y13, Y1, Y1
	VMOVDQU    Y1, (BX)                  // maxY = max(g, maxY) - ext
	TESTQ      R13, R13
	JZ         next16
	VPMOVSXWD    X2, Y3
	VMOVDQU      Y3, (R13)
	VEXTRACTI128 $1, Y2, X2
	VPMOVSXWD    X2, Y3
	VMOVDQU      Y3, 32(R13)
	ADDQ         $64, R13

next16:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ  loop16

	TESTQ R13, R13
	JZ    swap16
	ADDQ  $8, R13                        // the next arena row's pad and boundary

swap16:
	LEAQ  -4(R12), AX                    // this row, from its pad, is the next row's row above
	LEAQ  4(R11), R12
	MOVQ  AX, R11
	INCQ  R9
	DECQ  R10
	JNZ   row16

done16:
	VZEROUPPER
	RET

// func scanU8(prev, cur, maxY, maxYout, prof *uint8, codes *byte, rows, stride, nb int, k *u8Consts) int
//
// scan16 in 32 unsigned byte lanes per ymm register, nb blocks of 32
// columns, for score-only passes: four in-half scan steps (1, 2, 4, 8
// bytes), every subtraction saturating at 0 — exact because d >= 0 takes
// part in every max — and the carry handed on as mx's last lane, which is
// max(block scan, carry - 32 ext). The profile holds each exchange value
// plus the bias; adding it and subtracting the bias, both saturating,
// is max(0, best + e) for every cell whose true value stays below
// 255 - bias, and a cell that reaches it reads exactly 255 - bias. Y4
// keeps the maximum of the call's cells, and after every row the kernel
// checks it: at the flag level it returns that row (1-based) at once,
// otherwise it returns 0 after rows rows. A row reads its column gap
// maxima from maxY and writes them to maxYout, and the two swap after
// every row like the row buffers, so a flagged row leaves the state it
// started from — the row above and the gap maxima — untouched for the
// int16 rung to carry on from. k holds the model's vectors (u8Consts);
// prev, cur, codes, stride and the row swap are scan16's.
TEXT ·scanU8(SB), NOSPLIT, $0-88
	MOVQ    prev+0(FP), R11
	MOVQ    cur+8(FP), R12
	MOVQ    prof+32(FP), R8
	MOVQ    codes+40(FP), R9
	MOVQ    rows+48(FP), R10
	MOVQ    k+72(FP), AX
	MOVQ    $0, ret+80(FP)
	MOVQ    nb+64(FP), CX
	TESTQ   CX, CX
	JZ      doneU8
	TESTQ   R10, R10
	JZ      doneU8

	VMOVDQU  0(AX), Y14                  // open
	VMOVDQU  32(AX), Y13                 // ext
	VMOVDQU  64(AX), Y12                 // open + ext
	VMOVDQU  96(AX), Y11                 // 2 ext
	VMOVDQU  128(AX), Y10                // 4 ext
	VMOVDQU  160(AX), Y7                 // 8 ext
	VMOVDQU  192(AX), Y9                 // high half (1..16) ext, low half 0
	VMOVDQU  224(AX), Y8                 // (1..32) ext
	VMOVDQU  256(AX), Y15                // bias
	VMOVDQU  lastByte<>(SB), Y6
	VPXOR    Y4, Y4, Y4                  // the call's cell maximum

rowU8:
	MOVQ    R11, SI                      // the row above
	MOVQ    R12, DI                      // this row
	MOVQ    maxY+16(FP), BX              // gap maxima in
	MOVQ    maxYout+24(FP), AX           // and out
	MOVBQZX (R9), DX
	IMULQ   stride+56(FP), DX
	ADDQ    R8, DX                       // this row's biased exchange values
	MOVQ    nb+64(FP), CX
	VPXOR   Y5, Y5, Y5                   // carry-in: 0, MaxX of column 0 clamped
	PCALIGN $64

loopU8:
	VMOVDQU    (SI), Y0                  // P[i-1]
	VMOVDQU    1(SI), Y1                 // d = P[i]
	VPSUBUSB   Y12, Y0, Y0               // T
	VPSLLDQ    $1, Y0, Y2
	VPSUBUSB   Y13, Y2, Y2
	VPMAXUB    Y2, Y0, Y0
	VPSLLDQ    $2, Y0, Y2
	VPSUBUSB   Y11, Y2, Y2
	VPMAXUB    Y2, Y0, Y0
	VPSLLDQ    $4, Y0, Y2
	VPSUBUSB   Y10, Y2, Y2
	VPMAXUB    Y2, Y0, Y0
	VPSLLDQ    $8, Y0, Y2
	VPSUBUSB   Y7, Y2, Y2
	VPMAXUB    Y2, Y0, Y0                // scanned within each half
	VPERM2I128 $0x08, Y0, Y0, Y2
	VPSHUFB    Y6, Y2, Y2                // low half's last lane, in the high half
	VPSUBUSB   Y9, Y2, Y2
	VPMAXUB    Y2, Y0, Y0                // scanned across the block
	VPSUBUSB   Y8, Y5, Y2
	VPMAXUB    Y2, Y0, Y2                // mx = max(block scan, decayed carry)
	VPERM2I128 $0x11, Y2, Y2, Y5
	VPSHUFB    Y6, Y5, Y5                // carry for the next block: mx's last lane
	VMOVDQU    (BX), Y3                  // maxY
	VPMAXUB    Y1, Y2, Y2
	VPMAXUB    Y3, Y2, Y2                // max(d, mx, maxY)
	VPADDUSB   (DX), Y2, Y2              // + e + bias
	VPSUBUSB   Y15, Y2, Y2               // - bias, clamped at zero
	VPMAXUB    Y2, Y4, Y4
	VMOVDQU    Y2, (DI)
	VPSUBUSB   Y14, Y1, Y1               // g = d - open
	VPMAXUB    Y3, Y1, Y1
	VPSUBUSB   Y13, Y1, Y1
	VMOVDQU    Y1, (AX)                  // maxY out = max(g, maxY) - ext
	ADDQ       $32, SI
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $32, AX
	ADDQ       $32, DX
	DECQ       CX
	JNZ        loopU8

	VPADDUSB Y15, Y4, Y0                 // a cell at the flag level reads 255
	VPCMPEQB Y1, Y1, Y1
	VPCMPEQB Y1, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      flagU8
	MOVQ     maxY+16(FP), AX             // the gap maxima written are the next row's in
	MOVQ     maxYout+24(FP), BX
	MOVQ     BX, maxY+16(FP)
	MOVQ     AX, maxYout+24(FP)
	LEAQ     -2(R12), AX                 // this row, from its pad, is the next row's row above
	LEAQ     2(R11), R12
	MOVQ     AX, R11
	INCQ     R9
	DECQ     R10
	JNZ      rowU8
	JMP      doneU8

flagU8:
	MOVQ rows+48(FP), AX
	SUBQ R10, AX
	INCQ AX
	MOVQ AX, ret+80(FP)

doneU8:
	VZEROUPPER
	RET

// func rowScan8(prev, cur, maxY *int32, ex *int16, nb int, open, ext int32)
//
// rowScan16's exact twin for alignments whose scores may leave the int16
// range: 8 int32 lanes per ymm register, nb blocks of 8 columns, the
// same scan with two in-half steps. Exchange values are read from the
// same int16 profile and sign-extended.
TEXT ·rowScan8(SB), NOSPLIT, $0-48
	MOVQ  prev+0(FP), SI
	MOVQ  cur+8(FP), DI
	MOVQ  maxY+16(FP), BX
	MOVQ  ex+24(FP), DX
	MOVQ  nb+32(FP), CX
	MOVL  open+40(FP), R8
	MOVL  ext+44(FP), R9
	LEAL  (R8)(R9*1), R10
	VMOVD R8, X14
	VMOVD R9, X13
	VMOVD R10, X12
	TESTQ CX, CX
	JZ    done8

	VPBROADCASTD X14, Y14                // open
	VPBROADCASTD X13, Y13                // ext
	VPBROADCASTD X12, Y12                // open + ext
	VPADDD       Y13, Y13, Y11           // 2 ext
	VPMULLD      dist8<>(SB), Y13, Y8    // (1..8) ext
	VPERM2I128   $0x08, Y8, Y8, Y9       // high half (1..4) ext, low half 0
	VPSLLD       $3, Y13, Y7             // 8 ext
	VPXOR        Y15, Y15, Y15
	VPCMPEQD     Y5, Y5, Y5
	VPSLLD       $29, Y5, Y5             // carry-in: -2^29, MaxX of column 0
	PCALIGN $64

loop8:
	VMOVDQU    (SI), Y0                  // P[i-1]
	VMOVDQU    4(SI), Y1                 // d = P[i]
	VPSUBD     Y12, Y0, Y0               // T
	VPSLLDQ    $4, Y0, Y2
	VPSUBD     Y13, Y2, Y2
	VPMAXSD    Y2, Y0, Y0
	VPSLLDQ    $8, Y0, Y2
	VPSUBD     Y11, Y2, Y2
	VPMAXSD    Y2, Y0, Y0                // scanned within each half
	VPERM2I128 $0x08, Y0, Y0, Y2
	VPSHUFD    $0xff, Y2, Y2             // low half's last lane, in the high half
	VPSUBD     Y9, Y2, Y2
	VPMAXSD    Y2, Y0, Y0                // scanned across the block
	VPSUBD     Y8, Y5, Y2
	VPMAXSD    Y2, Y0, Y2                // mx
	VPERM2I128 $0x11, Y0, Y0, Y3
	VPSHUFD    $0xff, Y3, Y3
	VPSUBD     Y7, Y5, Y5
	VPMAXSD    Y3, Y5, Y5                // carry for the next block
	VMOVDQU    (BX), Y3                  // maxY
	VPMAXSD    Y1, Y2, Y2
	VPMAXSD    Y3, Y2, Y2
	VPMOVSXWD  (DX), Y4                  // e
	VPADDD     Y4, Y2, Y2
	VPMAXSD    Y15, Y2, Y2
	VMOVDQU    Y2, (DI)
	VPSUBD     Y14, Y1, Y1               // g = d - open
	VPMAXSD    Y3, Y1, Y1
	VPSUBD     Y13, Y1, Y1
	VMOVDQU    Y1, (BX)                  // maxY = max(g, maxY) - ext
	ADDQ       $32, SI
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $16, DX
	DECQ       CX
	JNZ        loop8

done8:
	VZEROUPPER
	RET

// CARRY_SEG turns a row's segment chains into the next row's carries
// (seg16): in Y1 the maximum over each segment's vectors v of the cell
// minus ramp[v], in Y3 the row's slot; out in Y0 the MaxX of every
// segment's first column. Less open, Y1 is the chain over vectors
// 0..segs-2; the slot's term (minus segs*ext) completes it with the
// column in front of the segment, and the end of segment j-1 is segment
// j's candidate; a scan of 1, 2, 4 and 8 lanes, minus segs*ext per lane,
// brings in those further left. The chain ends, before open comes off,
// go to the carry buffer's second vector, where a mask pass reads which
// cells they rest on. AX points at the segConsts, R14 at the carry
// buffer; Y4 is clobbered.
#define CARRY_SEG \
	VPSUBSW    64(AX), Y3, Y3 \
	VPMAXSW    Y3, Y1, Y1 \
	VMOVDQU    Y1, 32(R14) \
	VPSUBSW    Y14, Y1, Y1 \
	VPERM2I128 $0x08, Y1, Y1, Y4 \
	VPALIGNR   $14, Y4, Y1, Y0 \
	VPERM2I128 $0x08, Y0, Y0, Y4 \
	VPALIGNR   $14, Y4, Y0, Y4 \
	VPSUBSW    64(AX), Y4, Y4 \
	VPMAXSW    Y4, Y0, Y0 \
	VPERM2I128 $0x08, Y0, Y0, Y4 \
	VPALIGNR   $12, Y4, Y0, Y4 \
	VPSUBSW    96(AX), Y4, Y4 \
	VPMAXSW    Y4, Y0, Y0 \
	VPERM2I128 $0x08, Y0, Y0, Y4 \
	VPALIGNR   $8, Y4, Y0, Y4 \
	VPSUBSW    128(AX), Y4, Y4 \
	VPMAXSW    Y4, Y0, Y0 \
	VPERM2I128 $0x08, Y0, Y0, Y4 \
	VPSUBSW    160(AX), Y4, Y4 \
	VPMAXSW    Y4, Y0, Y0

// SEG_STEP computes vector v of a segmented row (seg16), v the one at
// BX+off bytes past the first: d is the row above's vector v-1, or its
// slot for v = 0.
#define SEG_STEP(off) \
	VMOVDQU off(R11)(BX*1), Y3 \
	VPSUBSW Y14, Y3, Y4 \
	VPMAXSW Y3, Y0, Y6 \
	VMOVDQU off(CX)(BX*1), Y5 \
	VPMAXSW Y5, Y6, Y6 \
	VPADDSW off(DX)(BX*1), Y6, Y6 \
	VPMAXSW Y15, Y6, Y6 \
	VMOVDQU Y6, 32+off(R12)(BX*1) \
	VPMAXSW Y4, Y5, Y5 \
	VPSUBSW Y13, Y5, Y5 \
	VMOVDQU Y5, off(CX)(BX*1) \
	VPMAXSW Y4, Y0, Y0 \
	VPSUBSW Y13, Y0, Y0 \
	VPSUBSW off(SI)(BX*1), Y6, Y2 \
	VPMAXSW Y2, Y1, Y1

// func seg16(prev, cur, maxY, prof *int16, codes *byte, rows, stride, segs int, carry, ramp *int16, k *segConsts, redo bool)
//
// scan16 in segmented rows (DESIGN.md section 17, "Wide windows are
// segmented"): lane j owns the segs columns j*segs+1 .. j*segs+segs, and
// vector v of a row holds column v+1 of every segment, so every step of
// the row is element-wise and no block shuffles a lane. A row buffer is
// segs+1 vectors: a slot, then vectors 0..segs-1. The slot holds the
// row's last vector moved up one lane (lane 0 the boundary, 0), so that
// vector v-1 of the row above is column v's diagonal in every lane, the
// slot included for v = 0.
//
// MaxX runs down each segment in a register — mx(v+1) = max(mx(v),
// d(v) - open) - ext — from a carry: mx of the segment's first column,
// which depends on the segments to its left. Since MaxX reads only the
// row above, the carries are known before the row starts: while a row is
// computed, Y1 keeps the maximum of its cells minus ramp[v] =
// (segs-1-v)*ext, which less open is the same chain's end over its
// vectors 0..segs-2 (the next row's diagonals 1..segs-1; ramp[segs-1]
// is 32767, which drives the last vector's term to 0 or below), and
// CARRY_SEG turns that and the slot into the next row's carries: one
// shuffle sequence per row, not per block. Every fill (the slot's lane
// 0, the scan's vacated lanes, a saturated ramp) leaves a candidate at 0
// or below, which d >= 0 always beats, as in scan16.
//
// With redo set, the call first rebuilds the slot and the carry from
// prev itself, as after a mask has zeroed cells of it or a hand-over
// has written it; otherwise it takes the carry the last call left in
// carry. It always leaves the carry for the row after its last one
// there, and the chain ends it was made from after it (CARRY_SEG). The
// row buffers swap after every row like scan16's; row y's profile
// vectors start at prof + codes[y-1]*stride bytes. k holds open, ext,
// and segs*ext times 1, 2, 4, 8, saturated (segConsts).
TEXT ·seg16(SB), NOSPLIT, $0-89
	MOVQ  prev+0(FP), R11
	MOVQ  cur+8(FP), R12
	MOVQ  prof+24(FP), R8
	MOVQ  codes+32(FP), R9
	MOVQ  rows+40(FP), R10
	MOVQ  segs+56(FP), R13
	MOVQ  carry+64(FP), R14
	MOVQ  ramp+72(FP), SI
	MOVQ  k+80(FP), AX
	TESTQ R13, R13
	JZ    doneSeg
	TESTQ R10, R10
	JZ    doneSeg
	SHLQ  $5, R13                        // the row's vectors end at 32*segs past vector 0

	VMOVDQU  0(AX), Y14                  // open
	VMOVDQU  32(AX), Y13                 // ext
	VPXOR    Y15, Y15, Y15               // zero, for the clamp
	VPCMPEQW Y7, Y7, Y7
	VPSLLW   $15, Y7, Y7                 // -32768
	MOVBLZX  redo+88(FP), DX
	TESTL    DX, DX
	JNZ      redoSeg
	VMOVDQU  (R14), Y0                   // the carry the last call left
	JMP      rowSeg

redoSeg:
	VMOVDQU    0(R11)(R13*1), Y3         // the row above's last vector
	VPERM2I128 $0x08, Y3, Y3, Y4
	VPALIGNR   $14, Y4, Y3, Y3           // up one lane: the slot
	VMOVDQU    Y3, (R11)
	VMOVDQA    Y7, Y1
	XORQ       BX, BX

redoLoop:
	VMOVDQU 32(R11)(BX*1), Y4
	VPSUBSW (SI)(BX*1), Y4, Y4
	VPMAXSW Y4, Y1, Y1
	ADDQ    $32, BX
	CMPQ    BX, R13
	JLT     redoLoop
	CARRY_SEG

rowSeg:
	MOVBQZX (R9), DX
	IMULQ   stride+48(FP), DX
	ADDQ    R8, DX                       // this row's profile vectors
	MOVQ    maxY+16(FP), CX
	VMOVDQA Y7, Y1
	XORQ    BX, BX
	TESTQ   $32, R13
	JZ      loopSeg
	MOVQ    $-32, BX                     // an odd count enters the pair at its second vector
	JMP     secondSeg
	PCALIGN $64

loopSeg:
	SEG_STEP(0)

secondSeg:
	SEG_STEP(32)
	ADDQ $64, BX
	CMPQ BX, R13
	JLT  loopSeg

	VPERM2I128 $0x08, Y6, Y6, Y4
	VPALIGNR   $14, Y4, Y6, Y3           // the last vector up one lane
	VMOVDQU    Y3, (R12)                 // this row's slot
	CARRY_SEG
	MOVQ       R11, BX                   // this row is the next row's row above
	MOVQ       R12, R11
	MOVQ       BX, R12
	INCQ       R9
	DECQ       R10
	JNZ        rowSeg

	VMOVDQU Y0, (R14)

doneSeg:
	VZEROUPPER
	RET

// func segProfileRow(dst *int16, codes *uint8, tab *segTable, segs int)
//
// One row of seg16's profile: dst[i] = the exchange value of codes[i]
// for the segs*16 codes, 16 a step. VPSHUFB looks each code up in the
// table of codes 0..15 and in that of 16..31 (both read the code's low
// four bits), a compare against 15 picks the one that applies, and the
// bytes are sign-extended to int16.
TEXT ·segProfileRow(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  codes+8(FP), SI
	MOVQ  tab+16(FP), AX
	MOVQ  segs+24(FP), CX
	TESTQ CX, CX
	JZ    doneProf
	VMOVDQU 0(AX), X5                    // codes 0..15
	VMOVDQU 16(AX), X6                   // codes 16..31
	VMOVDQU 32(AX), X7                   // 15

loopProf:
	VMOVDQU   (SI), X0
	VPCMPGTB  X7, X0, X1                 // code > 15
	VPSHUFB   X0, X5, X2
	VPSHUFB   X0, X6, X3
	VPBLENDVB X1, X3, X2, X4
	VPMOVSXBW X4, Y4
	VMOVDQU   Y4, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loopProf

doneProf:
	VZEROUPPER
	RET
