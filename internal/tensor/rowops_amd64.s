//go:build amd64 && !purego

#include "textflag.h"

// Row-op kernels of the fma variant (rowops.go states the contract): each
// lane runs the Go loop's IEEE operations in its order — one VMULPD,
// VADDPD, VSUBPD, VDIVPD, VSQRTPD or VMAXPD per Go operator, never a fused
// multiply-add — so every stored value equals the Go loop's bit for bit.
//
// Row reductions run "rows in lanes": a 4x4 transpose (T4X4, the shuffle
// pack_amd64.s packs A panels with) turns four columns of four rows into
// four registers holding one column each, lane r being row r, and each lane
// adds its row's elements in ascending column order; the last cols%4
// columns arrive one at a time (T4X1). Rows go in pairs of groups of four,
// two independent chains in flight; when only one group is left, the
// second chain re-reduces it and its results are dropped. The per-element
// passes then run per row with the row's scalars broadcast, over four
// columns at a time and a masked last step of cols%4.
//
// Registers shared by the row kernels: R9 the column count, R8 the row
// stride in bytes, R11 3*R8, CX the rows left, BX the rows of the current
// pair (8, or 4 for a last lone group), Y15 the mask of the last cols%4
// columns, Y14 float64(cols). The row kernels take a multiple of 4 rows;
// rowops.go runs the others in Go.

DATA rowOne<>+0(SB)/8, $1.0
DATA rowOne<>+8(SB)/8, $1.0
DATA rowOne<>+16(SB)/8, $1.0
DATA rowOne<>+24(SB)/8, $1.0
GLOBL rowOne<>(SB), RODATA|NOPTR, $32

DATA rowNegInf<>+0(SB)/8, $0xfff0000000000000
DATA rowNegInf<>+8(SB)/8, $0xfff0000000000000
DATA rowNegInf<>+16(SB)/8, $0xfff0000000000000
DATA rowNegInf<>+24(SB)/8, $0xfff0000000000000
GLOBL rowNegInf<>(SB), RODATA|NOPTR, $32

// rowTail<> + 32 - 8*r is the VMASKMOVPD mask selecting lanes 0..r-1.
DATA rowTail<>+0(SB)/8, $-1
DATA rowTail<>+8(SB)/8, $-1
DATA rowTail<>+16(SB)/8, $-1
DATA rowTail<>+24(SB)/8, $-1
DATA rowTail<>+32(SB)/8, $0
DATA rowTail<>+40(SB)/8, $0
DATA rowTail<>+48(SB)/8, $0
DATA rowTail<>+56(SB)/8, $0
GLOBL rowTail<>(SB), RODATA|NOPTR, $64

// MASKDF sets Y15 to the mask of the last R9%4 columns and Y14 to
// float64(R9) in every lane. Clobbers AX and DX.
#define MASKDF \
	MOVQ         R9, AX; \
	ANDQ         $3, AX; \
	SHLQ         $3, AX; \
	LEAQ         rowTail<>+32(SB), DX; \
	SUBQ         AX, DX; \
	VMOVDQU      (DX), Y15; \
	VCVTSI2SDQ   R9, X14, X14; \
	VBROADCASTSD X14, Y14

// ROWSETUP sets R8 and R11 from R9, then MASKDF.
#define ROWSETUP \
	MOVQ R9, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R11; \
	MASKDF

// PAIRSETUP(A, B) sets BX to the rows of this pair and B to the second
// group's first row: A + 4*R8, or A itself when four rows are left.
#define PAIRSETUP(A, B) \
	MOVQ    $4, BX; \
	MOVQ    A, B; \
	LEAQ    (A)(R8*4), AX; \
	CMPQ    CX, $8; \
	CMOVQGE AX, B; \
	MOVQ    $8, AX; \
	CMOVQGE AX, BX

// T4X4(P, o0, o1, o2, o3) puts columns 0..3 of the four rows at P (P,
// P+R8, P+2*R8, P+R11) in o0..o3, row r in lane r. Clobbers Y0-Y3.
#define T4X4(P, o0, o1, o2, o3) \
	VMOVUPD     (P), X0; \
	VINSERTF128 $1, (P)(R8*2), Y0, Y0; \
	VMOVUPD     (P)(R8*1), X1; \
	VINSERTF128 $1, (P)(R11*1), Y1, Y1; \
	VMOVUPD     16(P), X2; \
	VINSERTF128 $1, 16(P)(R8*2), Y2, Y2; \
	VMOVUPD     16(P)(R8*1), X3; \
	VINSERTF128 $1, 16(P)(R11*1), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, o0; \
	VUNPCKHPD   Y1, Y0, o1; \
	VUNPCKLPD   Y3, Y2, o2; \
	VUNPCKHPD   Y3, Y2, o3

// T4X1(P, o) puts column 0 of the four rows at P in o. Clobbers X0, X1.
#define T4X1(P, o) \
	VMOVSD      (P), X0; \
	VMOVHPD     (P)(R8*1), X0, X0; \
	VMOVSD      (P)(R8*2), X1; \
	VMOVHPD     (P)(R11*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, o

// ADD4(acc): acc += Y4, Y5, Y6, Y7 in that order.
#define ADD4(acc) \
	VADDPD Y4, acc, acc; \
	VADDPD Y5, acc, acc; \
	VADDPD Y6, acc, acc; \
	VADDPD Y7, acc, acc

// SQDEV1(o, mean, acc): acc += (o - mean)*(o - mean); clobbers o.
#define SQDEV1(o, mean, acc) \
	VSUBPD mean, o, o; \
	VMULPD o, o, o; \
	VADDPD o, acc, acc

// PROD4(acc): acc += Y4*Y12, Y5*Y13, Y6*Y14, Y7*Y15 in that order;
// clobbers Y4-Y7.
#define PROD4(acc) \
	VMULPD Y12, Y4, Y4; \
	VADDPD Y4, acc, acc; \
	VMULPD Y13, Y5, Y5; \
	VADDPD Y5, acc, acc; \
	VMULPD Y14, Y6, Y6; \
	VADDPD Y6, acc, acc; \
	VMULPD Y15, Y7, Y7; \
	VADDPD Y7, acc, acc

// func layerNormFwdFMA(y, xhat, invStd, x, gain, bias []float64, eps float64)
//
// Per pair: the means (Y8, Y9), the variances into 1/√(var+eps) (Y10,
// Y11), both kept in the frame — means at 0(SP), inverse deviations at
// 64(SP), one float64 per row — then x̂ and y row by row.
TEXT ·layerNormFwdFMA(SB), NOSPLIT, $128-152
	MOVQ y_base+0(FP), DI
	MOVQ xhat_base+24(FP), R10
	MOVQ invStd_base+48(FP), R13
	MOVQ invStd_len+56(FP), CX
	MOVQ x_base+72(FP), SI
	MOVQ gain_len+104(FP), R9
	ROWSETUP

lnfpair:
	CMPQ CX, $4
	JLT  lnfdone
	PAIRSETUP(SI, R14)
	MOVQ   SI, DX
	MOVQ   R14, R12
	MOVQ   R9, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

lnfmean4:
	CMPQ AX, $4
	JLT  lnfmean1
	T4X4(DX, Y4, Y5, Y6, Y7)
	ADD4(Y8)
	T4X4(R12, Y4, Y5, Y6, Y7)
	ADD4(Y9)
	ADDQ $32, DX
	ADDQ $32, R12
	SUBQ $4, AX
	JMP  lnfmean4

lnfmean1:
	TESTQ  AX, AX
	JZ     lnfvar
	T4X1(DX, Y4)
	VADDPD Y4, Y8, Y8
	T4X1(R12, Y4)
	VADDPD Y4, Y9, Y9
	ADDQ   $8, DX
	ADDQ   $8, R12
	DECQ   AX
	JMP    lnfmean1

lnfvar:
	VDIVPD Y14, Y8, Y8 // mean /= d
	VDIVPD Y14, Y9, Y9
	MOVQ   SI, DX
	MOVQ   R14, R12
	MOVQ   R9, AX
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

lnfvar4:
	CMPQ AX, $4
	JLT  lnfvar1
	T4X4(DX, Y4, Y5, Y6, Y7)
	SQDEV1(Y4, Y8, Y10)
	SQDEV1(Y5, Y8, Y10)
	SQDEV1(Y6, Y8, Y10)
	SQDEV1(Y7, Y8, Y10)
	T4X4(R12, Y4, Y5, Y6, Y7)
	SQDEV1(Y4, Y9, Y11)
	SQDEV1(Y5, Y9, Y11)
	SQDEV1(Y6, Y9, Y11)
	SQDEV1(Y7, Y9, Y11)
	ADDQ $32, DX
	ADDQ $32, R12
	SUBQ $4, AX
	JMP  lnfvar4

lnfvar1:
	TESTQ AX, AX
	JZ    lnfinv
	T4X1(DX, Y4)
	SQDEV1(Y4, Y8, Y10)
	T4X1(R12, Y4)
	SQDEV1(Y4, Y9, Y11)
	ADDQ  $8, DX
	ADDQ  $8, R12
	DECQ  AX
	JMP   lnfvar1

lnfinv:
	VDIVPD       Y14, Y10, Y10 // variance /= d
	VDIVPD       Y14, Y11, Y11
	VBROADCASTSD eps+144(FP), Y12
	VADDPD       Y12, Y10, Y10
	VADDPD       Y12, Y11, Y11
	VSQRTPD      Y10, Y10
	VSQRTPD      Y11, Y11
	VMOVUPD      rowOne<>(SB), Y12
	VDIVPD       Y10, Y12, Y10 // 1/√(var+eps)
	VDIVPD       Y11, Y12, Y11
	VMOVUPD      Y8, (SP)
	VMOVUPD      Y9, 32(SP)
	VMOVUPD      Y10, 64(SP)
	VMOVUPD      Y11, 96(SP)
	VMOVUPD      Y10, (R13)
	CMPQ         BX, $8
	JLT          lnfrows
	VMOVUPD      Y11, 32(R13)

lnfrows:
	XORQ DX, DX

lnfrow:
	VBROADCASTSD (SP)(DX*8), Y8    // mean
	VBROADCASTSD 64(SP)(DX*8), Y10 // 1/√(var+eps)
	MOVQ         gain_base+96(FP), R14
	MOVQ         bias_base+120(FP), R12
	MOVQ         R9, AX

lnfcol4:
	CMPQ    AX, $4
	JLT     lnfcol1
	VMOVUPD (SI), Y0
	VSUBPD  Y8, Y0, Y0
	VMULPD  Y10, Y0, Y0  // x̂
	VMOVUPD Y0, (R10)
	VMULPD  (R14), Y0, Y0
	VADDPD  (R12), Y0, Y0 // x̂·gain + bias
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R10
	ADDQ    $32, R12
	ADDQ    $32, R14
	SUBQ    $4, AX
	JMP     lnfcol4

lnfcol1:
	TESTQ      AX, AX
	JZ         lnfnext
	VMASKMOVPD (SI), Y15, Y0
	VSUBPD     Y8, Y0, Y0
	VMULPD     Y10, Y0, Y0
	VMASKMOVPD Y0, Y15, (R10)
	VMASKMOVPD (R14), Y15, Y1
	VMULPD     Y1, Y0, Y0
	VMASKMOVPD (R12), Y15, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)
	LEAQ       (SI)(AX*8), SI
	LEAQ       (DI)(AX*8), DI
	LEAQ       (R10)(AX*8), R10

lnfnext:
	INCQ DX
	CMPQ DX, BX
	JLT  lnfrow
	LEAQ (R13)(BX*8), R13
	SUBQ BX, CX
	JMP  lnfpair

lnfdone:
	VZEROUPPER
	RET

// func layerNormBwdFMA(dx, gGain, gBias, g, xhat, invStd, gain []float64)
//
// Per pair: Σdx̂ (Y8, Y9) and Σdx̂·x̂ (Y10, Y11) rows in lanes, kept in
// the frame at 0(SP) and 64(SP), and invStd/d at 128(SP); then row by
// row the gain and bias gradients and dx. The dx and invStd cursors live
// at 192(SP) and 200(SP) while DI and R13 walk x̂'s two groups.
TEXT ·layerNormBwdFMA(SB), NOSPLIT, $208-168
	MOVQ dx_base+0(FP), AX
	MOVQ AX, 192(SP)
	MOVQ invStd_base+120(FP), AX
	MOVQ AX, 200(SP)
	MOVQ invStd_len+128(FP), CX
	MOVQ g_base+72(FP), SI
	MOVQ xhat_base+96(FP), R10
	MOVQ gain_len+152(FP), R9
	ROWSETUP

lnbpair:
	CMPQ   CX, $4
	JLT    lnbdone
	PAIRSETUP(SI, R12)
	MOVQ   R12, R13
	SUBQ   SI, R13
	ADDQ   R10, R13 // x̂'s second group
	MOVQ   SI, DX
	MOVQ   R10, DI
	MOVQ   gain_base+144(FP), R14
	MOVQ   R9, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

lnbsum4:
	CMPQ         AX, $4
	JLT          lnbsum1
	T4X4(DX, Y4, Y5, Y6, Y7)
	VBROADCASTSD (R14), Y0
	VMULPD       Y0, Y4, Y4 // dx̂ = g·gain
	VBROADCASTSD 8(R14), Y0
	VMULPD       Y0, Y5, Y5
	VBROADCASTSD 16(R14), Y0
	VMULPD       Y0, Y6, Y6
	VBROADCASTSD 24(R14), Y0
	VMULPD       Y0, Y7, Y7
	ADD4(Y8)
	T4X4(DI, Y12, Y13, Y14, Y15)
	PROD4(Y10)
	T4X4(R12, Y4, Y5, Y6, Y7)
	VBROADCASTSD (R14), Y0
	VMULPD       Y0, Y4, Y4
	VBROADCASTSD 8(R14), Y0
	VMULPD       Y0, Y5, Y5
	VBROADCASTSD 16(R14), Y0
	VMULPD       Y0, Y6, Y6
	VBROADCASTSD 24(R14), Y0
	VMULPD       Y0, Y7, Y7
	ADD4(Y9)
	T4X4(R13, Y12, Y13, Y14, Y15)
	PROD4(Y11)
	ADDQ         $32, DX
	ADDQ         $32, DI
	ADDQ         $32, R12
	ADDQ         $32, R13
	ADDQ         $32, R14
	SUBQ         $4, AX
	JMP          lnbsum4

lnbsum1:
	TESTQ        AX, AX
	JZ           lnbscal
	VBROADCASTSD (R14), Y5
	T4X1(DX, Y4)
	VMULPD       Y5, Y4, Y4
	VADDPD       Y4, Y8, Y8
	T4X1(DI, Y6)
	VMULPD       Y6, Y4, Y4
	VADDPD       Y4, Y10, Y10
	T4X1(R12, Y4)
	VMULPD       Y5, Y4, Y4
	VADDPD       Y4, Y9, Y9
	T4X1(R13, Y6)
	VMULPD       Y6, Y4, Y4
	VADDPD       Y4, Y11, Y11
	ADDQ         $8, DX
	ADDQ         $8, DI
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $8, R14
	DECQ         AX
	JMP          lnbsum1

lnbscal:
	MASKDF
	VMOVUPD Y8, (SP)
	VMOVUPD Y9, 32(SP)
	VMOVUPD Y10, 64(SP)
	VMOVUPD Y11, 96(SP)
	MOVQ    200(SP), R13
	VMOVUPD (R13), Y4
	VDIVPD  Y14, Y4, Y4 // invStd/d
	VMOVUPD Y4, 128(SP)
	CMPQ    BX, $8
	JLT     lnbrows
	VMOVUPD 32(R13), Y4
	VDIVPD  Y14, Y4, Y4
	VMOVUPD Y4, 160(SP)

lnbrows:
	LEAQ (R13)(BX*8), R13
	MOVQ R13, 200(SP)
	MOVQ 192(SP), DI
	XORQ DX, DX

lnbrow:
	VBROADCASTSD (SP)(DX*8), Y8     // Σdx̂
	VBROADCASTSD 64(SP)(DX*8), Y10  // Σdx̂·x̂
	VBROADCASTSD 128(SP)(DX*8), Y9  // invStd/d
	MOVQ         gain_base+144(FP), R14
	MOVQ         gGain_base+24(FP), R12
	MOVQ         gBias_base+48(FP), R13
	MOVQ         R9, AX

lnbcol4:
	CMPQ    AX, $4
	JLT     lnbcol1
	VMOVUPD (SI), Y0       // g
	VMOVUPD (R10), Y1      // x̂
	VMULPD  Y1, Y0, Y2
	VMOVUPD (R12), Y3
	VADDPD  Y2, Y3, Y3     // gGain += g·x̂
	VMOVUPD Y3, (R12)
	VMOVUPD (R13), Y3
	VADDPD  Y0, Y3, Y3     // gBias += g
	VMOVUPD Y3, (R13)
	VMULPD  (R14), Y0, Y0  // dx̂
	VMULPD  Y0, Y14, Y0    // d·dx̂
	VSUBPD  Y8, Y0, Y0
	VMULPD  Y10, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y0, Y9, Y0     // invStd/d · (…)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, R14
	SUBQ    $4, AX
	JMP     lnbcol4

lnbcol1:
	TESTQ      AX, AX
	JZ         lnbnext
	VMASKMOVPD (SI), Y15, Y0
	VMASKMOVPD (R10), Y15, Y1
	VMULPD     Y1, Y0, Y2
	VMASKMOVPD (R12), Y15, Y3
	VADDPD     Y2, Y3, Y3
	VMASKMOVPD Y3, Y15, (R12)
	VMASKMOVPD (R13), Y15, Y3
	VADDPD     Y0, Y3, Y3
	VMASKMOVPD Y3, Y15, (R13)
	VMASKMOVPD (R14), Y15, Y2
	VMULPD     Y2, Y0, Y0
	VMULPD     Y0, Y14, Y0
	VSUBPD     Y8, Y0, Y0
	VMULPD     Y10, Y1, Y1
	VSUBPD     Y1, Y0, Y0
	VMULPD     Y0, Y9, Y0
	VMASKMOVPD Y0, Y15, (DI)
	LEAQ       (SI)(AX*8), SI
	LEAQ       (R10)(AX*8), R10
	LEAQ       (DI)(AX*8), DI

lnbnext:
	INCQ DX
	CMPQ DX, BX
	JLT  lnbrow
	MOVQ DI, 192(SP)
	SUBQ BX, CX
	JMP  lnbpair

lnbdone:
	VZEROUPPER
	RET

// func softmaxMaxFMA(dst, x, mx []float64, cols int, scale float64)
//
// Row r's max of x·scale (the Go loop's "if v > m", which VMAXPD with the
// new value as its first source is, NaNs skipped) into mx[r], rows in
// lanes from -Inf; then dst = x·scale over the pair's rows, which are
// contiguous.
TEXT ·softmaxMaxFMA(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         mx_base+48(FP), R13
	MOVQ         mx_len+56(FP), CX
	MOVQ         cols+72(FP), R9
	VBROADCASTSD scale+80(FP), Y13
	ROWSETUP

smxpair:
	CMPQ    CX, $4
	JLT     smxdone
	PAIRSETUP(SI, R12)
	MOVQ    SI, DX
	MOVQ    R9, AX
	VMOVUPD rowNegInf<>(SB), Y8
	VMOVUPD Y8, Y9

smx4:
	CMPQ   AX, $4
	JLT    smx1
	T4X4(DX, Y4, Y5, Y6, Y7)
	VMULPD Y13, Y4, Y4
	VMAXPD Y8, Y4, Y8
	VMULPD Y13, Y5, Y5
	VMAXPD Y8, Y5, Y8
	VMULPD Y13, Y6, Y6
	VMAXPD Y8, Y6, Y8
	VMULPD Y13, Y7, Y7
	VMAXPD Y8, Y7, Y8
	T4X4(R12, Y4, Y5, Y6, Y7)
	VMULPD Y13, Y4, Y4
	VMAXPD Y9, Y4, Y9
	VMULPD Y13, Y5, Y5
	VMAXPD Y9, Y5, Y9
	VMULPD Y13, Y6, Y6
	VMAXPD Y9, Y6, Y9
	VMULPD Y13, Y7, Y7
	VMAXPD Y9, Y7, Y9
	ADDQ   $32, DX
	ADDQ   $32, R12
	SUBQ   $4, AX
	JMP    smx4

smx1:
	TESTQ  AX, AX
	JZ     smxstore
	T4X1(DX, Y4)
	VMULPD Y13, Y4, Y4
	VMAXPD Y8, Y4, Y8
	T4X1(R12, Y4)
	VMULPD Y13, Y4, Y4
	VMAXPD Y9, Y4, Y9
	ADDQ   $8, DX
	ADDQ   $8, R12
	DECQ   AX
	JMP    smx1

smxstore:
	VMOVUPD Y8, (R13)
	CMPQ    BX, $8
	JLT     smxscale
	VMOVUPD Y9, 32(R13)

smxscale:
	MOVQ  BX, AX
	IMULQ R9, AX // the pair's elements, a multiple of 4

smxscale4:
	VMOVUPD (SI), Y0
	VMULPD  Y13, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, AX
	JNE     smxscale4
	LEAQ    (R13)(BX*8), R13
	SUBQ    BX, CX
	JMP     smxpair

smxdone:
	VZEROUPPER
	RET

// func softmaxNormFMA(dst []float64, rows, cols int)
//
// Row r's ascending sum of the exps, rows in lanes, then dst *= 1/sum row
// by row; the inverses wait in the frame.
TEXT ·softmaxNormFMA(SB), NOSPLIT, $64-40
	MOVQ dst_base+0(FP), DI
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R9
	ROWSETUP

snpair:
	CMPQ   CX, $4
	JLT    sndone
	PAIRSETUP(DI, R12)
	MOVQ   DI, DX
	MOVQ   R9, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

snsum4:
	CMPQ AX, $4
	JLT  snsum1
	T4X4(DX, Y4, Y5, Y6, Y7)
	ADD4(Y8)
	T4X4(R12, Y4, Y5, Y6, Y7)
	ADD4(Y9)
	ADDQ $32, DX
	ADDQ $32, R12
	SUBQ $4, AX
	JMP  snsum4

snsum1:
	TESTQ  AX, AX
	JZ     sninv
	T4X1(DX, Y4)
	VADDPD Y4, Y8, Y8
	T4X1(R12, Y4)
	VADDPD Y4, Y9, Y9
	ADDQ   $8, DX
	ADDQ   $8, R12
	DECQ   AX
	JMP    snsum1

sninv:
	VMOVUPD rowOne<>(SB), Y12
	VDIVPD  Y8, Y12, Y8
	VDIVPD  Y9, Y12, Y9
	VMOVUPD Y8, (SP)
	VMOVUPD Y9, 32(SP)
	XORQ    DX, DX

snrow:
	VBROADCASTSD (SP)(DX*8), Y8
	MOVQ         R9, AX

sncol4:
	CMPQ    AX, $4
	JLT     sncol1
	VMOVUPD (DI), Y0
	VMULPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, AX
	JMP     sncol4

sncol1:
	TESTQ      AX, AX
	JZ         snnext
	VMASKMOVPD (DI), Y15, Y0
	VMULPD     Y8, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)
	LEAQ       (DI)(AX*8), DI

snnext:
	INCQ DX
	CMPQ DX, BX
	JLT  snrow
	SUBQ BX, CX
	JMP  snpair

sndone:
	VZEROUPPER
	RET

// func softmaxBwdFMA(dst, p, g []float64, rows, cols int, scale float64)
//
// Row r's ascending Σ p·g, rows in lanes (p's columns in Y4-Y7, g's in
// Y12-Y15), then dst = p·(g − dot)·scale row by row; the dots wait in the
// frame.
TEXT ·softmaxBwdFMA(SB), NOSPLIT, $64-96
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ g_base+48(FP), R10
	MOVQ rows+72(FP), CX
	MOVQ cols+80(FP), R9
	ROWSETUP

sbpair:
	CMPQ   CX, $4
	JLT    sbdone
	PAIRSETUP(SI, R12)
	MOVQ   R12, R14
	SUBQ   SI, R14
	ADDQ   R10, R14 // g's second group
	MOVQ   SI, DX
	MOVQ   R10, R13
	MOVQ   R9, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

sbdot4:
	CMPQ AX, $4
	JLT  sbdot1
	T4X4(DX, Y4, Y5, Y6, Y7)
	T4X4(R13, Y12, Y13, Y14, Y15)
	PROD4(Y8)
	T4X4(R12, Y4, Y5, Y6, Y7)
	T4X4(R14, Y12, Y13, Y14, Y15)
	PROD4(Y9)
	ADDQ $32, DX
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	SUBQ $4, AX
	JMP  sbdot4

sbdot1:
	TESTQ  AX, AX
	JZ     sbrows
	T4X1(DX, Y4)
	T4X1(R13, Y5)
	VMULPD Y5, Y4, Y4
	VADDPD Y4, Y8, Y8
	T4X1(R12, Y4)
	T4X1(R14, Y5)
	VMULPD Y5, Y4, Y4
	VADDPD Y4, Y9, Y9
	ADDQ   $8, DX
	ADDQ   $8, R12
	ADDQ   $8, R13
	ADDQ   $8, R14
	DECQ   AX
	JMP    sbdot1

sbrows:
	MASKDF
	VBROADCASTSD scale+88(FP), Y13
	VMOVUPD      Y8, (SP)
	VMOVUPD      Y9, 32(SP)
	XORQ         DX, DX

sbrow:
	VBROADCASTSD (SP)(DX*8), Y8
	MOVQ         R9, AX

sbcol4:
	CMPQ    AX, $4
	JLT     sbcol1
	VMOVUPD (R10), Y0
	VSUBPD  Y8, Y0, Y0   // g − dot
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y0   // p·(g − dot)
	VMULPD  Y13, Y0, Y0  // ·scale
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, DI
	SUBQ    $4, AX
	JMP     sbcol4

sbcol1:
	TESTQ      AX, AX
	JZ         sbnext
	VMASKMOVPD (R10), Y15, Y0
	VSUBPD     Y8, Y0, Y0
	VMASKMOVPD (SI), Y15, Y1
	VMULPD     Y0, Y1, Y0
	VMULPD     Y13, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)
	LEAQ       (SI)(AX*8), SI
	LEAQ       (R10)(AX*8), R10
	LEAQ       (DI)(AX*8), DI

sbnext:
	INCQ DX
	CMPQ DX, BX
	JLT  sbrow
	SUBQ BX, CX
	JMP  sbpair

sbdone:
	VZEROUPPER
	RET

// func addRowFMA(dst, b []float64)
//
// Every len(b)-element row of dst += b; len(dst) is a multiple of len(b).
TEXT ·addRowFMA(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), R9
	MASKDF

arrow:
	CMPQ CX, R9
	JLT  ardone
	MOVQ SI, R12
	MOVQ R9, AX

arcol4:
	CMPQ    AX, $4
	JLT     arcol1
	VMOVUPD (DI), Y0
	VADDPD  (R12), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R12
	SUBQ    $4, AX
	JMP     arcol4

arcol1:
	TESTQ      AX, AX
	JZ         arnext
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (R12), Y15, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y15, (DI)
	LEAQ       (DI)(AX*8), DI

arnext:
	SUBQ R9, CX
	JMP  arrow

ardone:
	VZEROUPPER
	RET

// func colSumFMA(dst, src []float64)
//
// dst[j] += src[i][j] for the len(src)/len(dst) rows i in ascending order,
// columns in lanes: sixteen columns (four chains) at a time, then four,
// then the masked last len(dst)%4. CX is the end of the current columns'
// run through src.
TEXT ·colSumFMA(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	LEAQ (SI)(CX*8), CX
	MOVQ R9, R8
	SHLQ $3, R8
	MASKDF
	MOVQ R9, AX

cs16:
	CMPQ    AX, $16
	JLT     cs4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, DX

cs16row:
	CMPQ   DX, CX
	JAE    cs16store
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1
	VADDPD 64(DX), Y2, Y2
	VADDPD 96(DX), Y3, Y3
	ADDQ   R8, DX
	JMP    cs16row

cs16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, CX
	SUBQ    $16, AX
	JMP     cs16

cs4:
	CMPQ    AX, $4
	JLT     cs1
	VMOVUPD (DI), Y0
	MOVQ    SI, DX

cs4row:
	CMPQ   DX, CX
	JAE    cs4store
	VADDPD (DX), Y0, Y0
	ADDQ   R8, DX
	JMP    cs4row

cs4store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, CX
	SUBQ    $4, AX
	JMP     cs4

cs1:
	TESTQ      AX, AX
	JZ         csdone
	VMASKMOVPD (DI), Y15, Y0
	MOVQ       SI, DX

cs1row:
	CMPQ       DX, CX
	JAE        cs1store
	VMASKMOVPD (DX), Y15, Y1
	VADDPD     Y1, Y0, Y0
	ADDQ       R8, DX
	JMP        cs1row

cs1store:
	VMASKMOVPD Y0, Y15, (DI)

csdone:
	VZEROUPPER
	RET

// func addFMA(dst, src []float64)
//
// dst[i] += src[i]; len(src) is a multiple of 4.
TEXT ·addFMA(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

addloop:
	CMPQ    CX, $4
	JLT     adddone
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     addloop

adddone:
	VZEROUPPER
	RET

// func scaleFMA(dst []float64, alpha float64)
//
// dst[i] *= alpha; len(dst) is a multiple of 4.
TEXT ·scaleFMA(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD alpha+24(FP), Y1

scaleloop:
	CMPQ    CX, $4
	JLT     scaledone
	VMOVUPD (DI), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scaleloop

scaledone:
	VZEROUPPER
	RET
