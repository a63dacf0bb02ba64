//go:build amd64 && !purego

#include "textflag.h"

// The SPD inverse's base-block kernels of the fma variant (cholesky.go
// states the contract): each lane runs choleskyInto's / triInvInto's IEEE
// operations in their order — one VMULPD then one VADDPD per product and
// sum, never a fused multiply-add, one VSUBPD, VDIVPD or VSQRTSD per Go
// operator — so every value they store equals the Go loops' bit for bit.
//
// Both work on 16x16 buffers of 16-element lines (128 bytes), every line
// four YMM registers wide, and compute all sixteen lanes of a line whatever
// the block's size: lanes outside the block's lower triangle are computed
// from whatever the buffer holds there and land only where no valid lane
// reads them back.

DATA cholOne<>+0(SB)/8, $1.0
GLOBL cholOne<>(SB), RODATA|NOPTR, $8

DATA cholSign<>+0(SB)/8, $0x8000000000000000
GLOBL cholSign<>(SB), RODATA|NOPTR, $8

// func cholBaseFMA(t []float64, n int) bool
//
// Cholesky "rows in lanes", in place on t transposed: t[k*16+i] holds
// m[i][k] for i >= k on entry and l[i][k] on return, column j computed from
// columns 0..j-1 with lane i summing l[i][k]*l[j][k] over ascending k — the
// Go loop's s for element (i, j). Lane j's difference is the pivot; it
// returns false at the first pivot that is not positive (or is NaN), where
// choleskyInto returns ErrNotSPD.
//
// Registers: SI t, CX n, DX j, DI column j, R8 column k, R9 &t[k*16+j],
// AX the k left, Y0-Y3 the sixteen sums.
TEXT ·cholBaseFMA(SB), NOSPLIT, $0-33
	MOVQ   t_base+0(FP), SI
	MOVQ   n+24(FP), CX
	XORQ   DX, DX
	MOVQ   SI, DI
	VXORPD X15, X15, X15

cbcol:
	CMPQ   DX, CX
	JGE    cbok
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R8
	LEAQ   (SI)(DX*8), R9
	MOVQ   DX, AX

cbk:
	TESTQ        AX, AX
	JZ           cbdiag
	VBROADCASTSD (R9), Y4
	VMULPD       (R8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R8), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R8), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R8), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, R8
	ADDQ         $128, R9
	DECQ         AX
	JMP          cbk

cbdiag:
	// m - s for the whole column, stored so the pivot lane can be read.
	VMOVUPD  (DI), Y4
	VSUBPD   Y0, Y4, Y4
	VMOVUPD  32(DI), Y5
	VSUBPD   Y1, Y5, Y5
	VMOVUPD  64(DI), Y6
	VSUBPD   Y2, Y6, Y6
	VMOVUPD  96(DI), Y7
	VSUBPD   Y3, Y7, Y7
	VMOVUPD  Y4, (DI)
	VMOVUPD  Y5, 32(DI)
	VMOVUPD  Y6, 64(DI)
	VMOVUPD  Y7, 96(DI)
	VMOVSD   (DI)(DX*8), X8
	VUCOMISD X15, X8
	JLS      cbfail          // d <= 0, or unordered (NaN)
	VSQRTSD  X8, X8, X8
	VBROADCASTSD X8, Y9
	VDIVPD   Y9, Y4, Y4
	VDIVPD   Y9, Y5, Y5
	VDIVPD   Y9, Y6, Y6
	VDIVPD   Y9, Y7, Y7
	VMOVUPD  Y4, (DI)
	VMOVUPD  Y5, 32(DI)
	VMOVUPD  Y6, 64(DI)
	VMOVUPD  Y7, 96(DI)
	VMOVSD   X8, (DI)(DX*8)
	INCQ     DX
	ADDQ     $128, DI
	JMP      cbcol

cbok:
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

cbfail:
	MOVB $0, ret+32(FP)
	VZEROUPPER
	RET

// func triInvBaseFMA(r, t []float64, n int)
//
// The inverse of the lower-triangular l held transposed in t (cholBaseFMA's
// output) into r's rows, columns in lanes: row i of r is -(Σ_k l[i][k]·r[k])
// / l[i][i] over ascending k < i, then r[i][i] = 1/l[i][i]. Lane j adds the
// terms k < j too, but r[k][j] is ±0 there (row k's lanes past k are -0/l,
// and row 0 has no terms), and l[i][k] is finite after a successful
// factorization, so those products are ±0 and the lane's sum is still +0
// when triInvInto's sum starts at k = j.
//
// Registers: DI r, SI t, CX n, DX i, R10 row i, R8 row k, R9 &t[k*16+i],
// AX the k left, Y0-Y3 the sixteen sums.
TEXT ·triInvBaseFMA(SB), NOSPLIT, $0-56
	MOVQ         r_base+0(FP), DI
	MOVQ         t_base+24(FP), SI
	MOVQ         n+48(FP), CX
	XORQ         DX, DX
	MOVQ         DI, R10
	VBROADCASTSD cholSign<>(SB), Y14
	VMOVSD       cholOne<>(SB), X13

tirow:
	CMPQ   DX, CX
	JGE    tidone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DI, R8
	LEAQ   (SI)(DX*8), R9
	MOVQ   DX, AX

tik:
	TESTQ        AX, AX
	JZ           tifin
	VBROADCASTSD (R9), Y4
	VMULPD       (R8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R8), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R8), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R8), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, R8
	ADDQ         $128, R9
	DECQ         AX
	JMP          tik

tifin:
	MOVQ         DX, AX
	SHLQ         $4, AX
	ADDQ         DX, AX // 17*i: element (i, i) of a 16-wide buffer
	VBROADCASTSD (SI)(AX*8), Y9
	VXORPD       Y14, Y0, Y0
	VXORPD       Y14, Y1, Y1
	VXORPD       Y14, Y2, Y2
	VXORPD       Y14, Y3, Y3
	VDIVPD       Y9, Y0, Y0
	VDIVPD       Y9, Y1, Y1
	VDIVPD       Y9, Y2, Y2
	VDIVPD       Y9, Y3, Y3
	VMOVUPD      Y0, (R10)
	VMOVUPD      Y1, 32(R10)
	VMOVUPD      Y2, 64(R10)
	VMOVUPD      Y3, 96(R10)
	VDIVSD       X9, X13, X10
	VMOVSD       X10, (DI)(AX*8)
	INCQ         DX
	ADDQ         $128, R10
	JMP          tirow

tidone:
	VZEROUPPER
	RET

// func negFMA(x []float64)
//
// x = -x by flipping every sign bit, as the Go loop's -v does: the packed A
// panels of a gemmNeg product (the blocked inverse's Schur update and M21).
// len(x) is a multiple of 4.
TEXT ·negFMA(SB), NOSPLIT, $0-24
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD cholSign<>(SB), Y14

neg16:
	CMPQ    CX, $16
	JLT     neg4
	VXORPD  (DI), Y14, Y0
	VXORPD  32(DI), Y14, Y1
	VXORPD  64(DI), Y14, Y2
	VXORPD  96(DI), Y14, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     neg16

neg4:
	CMPQ    CX, $4
	JLT     negdone
	VXORPD  (DI), Y14, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     neg4

negdone:
	VZEROUPPER
	RET
