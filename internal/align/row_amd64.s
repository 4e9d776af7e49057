#include "textflag.h"

// VPSHUFB control: every word of a 128-bit half takes that half's last
// word (bytes 14, 15).
DATA lastWord<>+0(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+8(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+16(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA lastWord<>+24(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL lastWord<>(SB), RODATA|NOPTR, $32

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

// func rowScan16(prev, cur, maxY, ex *int16, out32 *int32, nb int, open, ext int16)
//
// One matrix row of the Figure 3 recurrence over nb blocks of 16
// neighbouring columns, 16 saturating int16 lanes per ymm register.
// Column i of the row needs, from the row above P only,
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
// (P[-1], kept 0), cur at column 0's cell of this row; out32, when not
// nil, receives the cells widened to int32 as well (traceback matrices).
// Prologue order matters: every move into an X register precedes the
// first 256-bit instruction, or each call pays an SSE/AVX transition.
TEXT ·rowScan16(SB), NOSPLIT, $0-52
	MOVQ    prev+0(FP), SI
	MOVQ    cur+8(FP), DI
	MOVQ    maxY+16(FP), BX
	MOVQ    ex+24(FP), DX
	MOVQ    out32+32(FP), R13
	MOVQ    nb+40(FP), CX
	MOVWLZX open+48(FP), R8
	MOVWLZX ext+50(FP), R9
	LEAL    (R8)(R9*1), R10
	VMOVD   R8, X14
	VMOVD   R9, X13
	VMOVD   R10, X12
	TESTQ   CX, CX
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
	VPCMPEQW     Y5, Y5, Y5
	VPSLLW       $15, Y5, Y5             // carry-in: -32768, MaxX of column 0

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

done16:
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
