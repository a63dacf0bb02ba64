//go:build amd64 && !purego

#include "textflag.h"

// F64ARGS loads the tile arguments shared by every kernel: CX the C tile,
// R8 its row stride in bytes (SH the log2 of the element size), DI the A
// panel, SI the B panel, R10 kc.
#define F64ARGS(SH) \
	MOVQ c_base+0(FP), CX; \
	MOVQ ldc+24(FP), R8; \
	SHLQ $SH, R8; \
	MOVQ ap_base+32(FP), DI; \
	MOVQ bp_base+56(FP), SI; \
	MOVQ kc+80(FP), R10

// TILE8(OP, r0, ..., r7) runs OP(row, register) over the eight C rows,
// DX walking them from CX by R8.
#define TILE8(OP, r0, r1, r2, r3, r4, r5, r6, r7) \
	MOVQ CX, DX; \
	OP(r0); \
	ADDQ R8, DX; \
	OP(r1); \
	ADDQ R8, DX; \
	OP(r2); \
	ADDQ R8, DX; \
	OP(r3); \
	ADDQ R8, DX; \
	OP(r4); \
	ADDQ R8, DX; \
	OP(r5); \
	ADDQ R8, DX; \
	OP(r6); \
	ADDQ R8, DX; \
	OP(r7)

#define LOADY(r) VMOVUPD (DX), r
#define STOREY(r) VMOVUPD r, (DX)
#define ZEROY(r) VXORPD r, r, r

// STEP8X4 is one k step of the 8x4 float64 tile: one B-panel vector load,
// eight A-lane broadcasts, eight VFMADD231PD into Y0-Y7.
#define STEP8X4 \
	VMOVUPD      (SI), Y8; \
	VBROADCASTSD (DI), Y9; \
	VFMADD231PD  Y8, Y9, Y0; \
	VBROADCASTSD 8(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y1; \
	VBROADCASTSD 16(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y2; \
	VBROADCASTSD 24(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y3; \
	VBROADCASTSD 32(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y4; \
	VBROADCASTSD 40(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y5; \
	VBROADCASTSD 48(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y6; \
	VBROADCASTSD 56(DI), Y9; \
	VFMADD231PD  Y8, Y9, Y7; \
	ADDQ         $64, DI; \
	ADDQ         $32, SI

// func fma8x4f64(c []float64, ldc int, ap, bp []float64, kc int)
//
// 8x4 float64 tile: Y0-Y7 hold one 4-double C row each, loaded up front
// and stored once at the end. ap advances 8 doubles per k step, bp 4.
TEXT ·fma8x4f64(SB), NOSPLIT, $0-88
	F64ARGS(3)
	TILE8(LOADY, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

f64loop:
	STEP8X4
	DECQ R10
	JNE  f64loop
	TILE8(STOREY, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VZEROUPPER
	RET

// func fma8x4f64Store(c []float64, ldc int, ap, bp []float64, kc int)
//
// fma8x4f64 over a C tile that reads as +0: the accumulators start at +0
// and C is only stored, so what C held is never read. Bit-identical to
// fma8x4f64 on a zeroed tile — the first FMA adds its product to +0 either
// way, and an accumulator that starts at +0 never becomes -0.
TEXT ·fma8x4f64Store(SB), NOSPLIT, $0-88
	F64ARGS(3)
	TILE8(ZEROY, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

f64sloop:
	STEP8X4
	DECQ R10
	JNE  f64sloop
	TILE8(STOREY, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VZEROUPPER
	RET

// func fma8x8f32(c []float32, ldc int, ap, bp []float32, kc int)
//
// 8x8 float32 tile: Y0-Y7 hold one 8-float C row each. ap and bp both
// advance 8 floats (32 bytes) per k step.
TEXT ·fma8x8f32(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), CX
	MOVQ ldc+24(FP), R8
	SHLQ $2, R8              // row stride in bytes
	MOVQ ap_base+32(FP), DI
	MOVQ bp_base+56(FP), SI
	MOVQ kc+80(FP), R10

	// Load the C tile.
	MOVQ CX, DX
	VMOVUPS (DX), Y0
	ADDQ R8, DX
	VMOVUPS (DX), Y1
	ADDQ R8, DX
	VMOVUPS (DX), Y2
	ADDQ R8, DX
	VMOVUPS (DX), Y3
	ADDQ R8, DX
	VMOVUPS (DX), Y4
	ADDQ R8, DX
	VMOVUPS (DX), Y5
	ADDQ R8, DX
	VMOVUPS (DX), Y6
	ADDQ R8, DX
	VMOVUPS (DX), Y7

f32loop:
	VMOVUPS      (SI), Y8
	VBROADCASTSS (DI), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS 4(DI), Y9
	VFMADD231PS  Y8, Y9, Y1
	VBROADCASTSS 8(DI), Y9
	VFMADD231PS  Y8, Y9, Y2
	VBROADCASTSS 12(DI), Y9
	VFMADD231PS  Y8, Y9, Y3
	VBROADCASTSS 16(DI), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS 20(DI), Y9
	VFMADD231PS  Y8, Y9, Y5
	VBROADCASTSS 24(DI), Y9
	VFMADD231PS  Y8, Y9, Y6
	VBROADCASTSS 28(DI), Y9
	VFMADD231PS  Y8, Y9, Y7
	ADDQ         $32, DI
	ADDQ         $32, SI
	DECQ         R10
	JNE          f32loop

	// Store the C tile.
	MOVQ CX, DX
	VMOVUPS Y0, (DX)
	ADDQ R8, DX
	VMOVUPS Y1, (DX)
	ADDQ R8, DX
	VMOVUPS Y2, (DX)
	ADDQ R8, DX
	VMOVUPS Y3, (DX)
	ADDQ R8, DX
	VMOVUPS Y4, (DX)
	ADDQ R8, DX
	VMOVUPS Y5, (DX)
	ADDQ R8, DX
	VMOVUPS Y6, (DX)
	ADDQ R8, DX
	VMOVUPS Y7, (DX)
	VZEROUPPER
	RET

#define LOADZ(r0, r1) VMOVUPD (DX), r0; VMOVUPD 64(DX), r1
#define STOREZ(r0, r1) VMOVUPD r0, (DX); VMOVUPD r1, 64(DX)
#define ZEROZ(r0, r1) VPXORQ r0, r0, r0; VPXORQ r1, r1, r1

// TILE8Z(OP) runs OP(row's two registers) over the eight C rows of the
// 512-bit tile, row r in Z(2r), Z(2r+1).
#define TILE8Z(OP) \
	MOVQ CX, DX; \
	OP(Z0, Z1); \
	ADDQ R8, DX; \
	OP(Z2, Z3); \
	ADDQ R8, DX; \
	OP(Z4, Z5); \
	ADDQ R8, DX; \
	OP(Z6, Z7); \
	ADDQ R8, DX; \
	OP(Z8, Z9); \
	ADDQ R8, DX; \
	OP(Z10, Z11); \
	ADDQ R8, DX; \
	OP(Z12, Z13); \
	ADDQ R8, DX; \
	OP(Z14, Z15)

// STEP8X16 is one k step of the 8x16 float64 tile: two B-panel vector
// loads, eight A-lane broadcasts, sixteen VFMADD231PD into Z0-Z15.
#define STEP8X16 \
	VMOVUPD      (SI), Z16; \
	VMOVUPD      64(SI), Z17; \
	VBROADCASTSD (DI), Z18; \
	VFMADD231PD  Z16, Z18, Z0; \
	VFMADD231PD  Z17, Z18, Z1; \
	VBROADCASTSD 8(DI), Z19; \
	VFMADD231PD  Z16, Z19, Z2; \
	VFMADD231PD  Z17, Z19, Z3; \
	VBROADCASTSD 16(DI), Z20; \
	VFMADD231PD  Z16, Z20, Z4; \
	VFMADD231PD  Z17, Z20, Z5; \
	VBROADCASTSD 24(DI), Z21; \
	VFMADD231PD  Z16, Z21, Z6; \
	VFMADD231PD  Z17, Z21, Z7; \
	VBROADCASTSD 32(DI), Z18; \
	VFMADD231PD  Z16, Z18, Z8; \
	VFMADD231PD  Z17, Z18, Z9; \
	VBROADCASTSD 40(DI), Z19; \
	VFMADD231PD  Z16, Z19, Z10; \
	VFMADD231PD  Z17, Z19, Z11; \
	VBROADCASTSD 48(DI), Z20; \
	VFMADD231PD  Z16, Z20, Z12; \
	VFMADD231PD  Z17, Z20, Z13; \
	VBROADCASTSD 56(DI), Z21; \
	VFMADD231PD  Z16, Z21, Z14; \
	VFMADD231PD  Z17, Z21, Z15; \
	ADDQ         $64, DI; \
	ADDQ         $128, SI

// func fma8x16f64(c []float64, ldc int, ap, bp []float64, kc int)
//
// 8x16 float64 tile at 512 bits: Z0-Z15 hold the C tile, row r in
// Z(2r), Z(2r+1), loaded up front and stored once at the end. Per element
// the same one FMA per k in ascending k as fma8x4f64, so the two tiles
// agree bit for bit. ap advances 8 doubles per step, bp 16.
TEXT ·fma8x16f64(SB), NOSPLIT, $0-88
	F64ARGS(3)
	TILE8Z(LOADZ)

f64wloop:
	STEP8X16
	DECQ R10
	JNE  f64wloop
	TILE8Z(STOREZ)
	VZEROUPPER
	RET

// func fma8x16f64Store(c []float64, ldc int, ap, bp []float64, kc int)
//
// fma8x16f64 over a C tile that reads as +0, as fma8x4f64Store.
TEXT ·fma8x16f64Store(SB), NOSPLIT, $0-88
	F64ARGS(3)
	TILE8Z(ZEROZ)

f64wsloop:
	STEP8X16
	DECQ R10
	JNE  f64wsloop
	TILE8Z(STOREZ)
	VZEROUPPER
	RET

// func fma8x32f32(c []float32, ldc int, ap, bp []float32, kc int)
//
// 8x32 float32 tile at 512 bits, fma8x16f64's layout with 16 floats per
// register: ap advances 8 floats (32 bytes) per k step, bp 32 floats.
TEXT ·fma8x32f32(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), CX
	MOVQ ldc+24(FP), R8
	SHLQ $2, R8              // row stride in bytes
	MOVQ ap_base+32(FP), DI
	MOVQ bp_base+56(FP), SI
	MOVQ kc+80(FP), R10

	// Load the C tile.
	MOVQ CX, DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	ADDQ R8, DX
	VMOVUPS (DX), Z2
	VMOVUPS 64(DX), Z3
	ADDQ R8, DX
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	ADDQ R8, DX
	VMOVUPS (DX), Z6
	VMOVUPS 64(DX), Z7
	ADDQ R8, DX
	VMOVUPS (DX), Z8
	VMOVUPS 64(DX), Z9
	ADDQ R8, DX
	VMOVUPS (DX), Z10
	VMOVUPS 64(DX), Z11
	ADDQ R8, DX
	VMOVUPS (DX), Z12
	VMOVUPS 64(DX), Z13
	ADDQ R8, DX
	VMOVUPS (DX), Z14
	VMOVUPS 64(DX), Z15

f32wloop:
	VMOVUPS      (SI), Z16
	VMOVUPS      64(SI), Z17
	VBROADCASTSS (DI), Z18
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z1
	VBROADCASTSS 4(DI), Z19
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z17, Z19, Z3
	VBROADCASTSS 8(DI), Z20
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z17, Z20, Z5
	VBROADCASTSS 12(DI), Z21
	VFMADD231PS  Z16, Z21, Z6
	VFMADD231PS  Z17, Z21, Z7
	VBROADCASTSS 16(DI), Z18
	VFMADD231PS  Z16, Z18, Z8
	VFMADD231PS  Z17, Z18, Z9
	VBROADCASTSS 20(DI), Z19
	VFMADD231PS  Z16, Z19, Z10
	VFMADD231PS  Z17, Z19, Z11
	VBROADCASTSS 24(DI), Z20
	VFMADD231PS  Z16, Z20, Z12
	VFMADD231PS  Z17, Z20, Z13
	VBROADCASTSS 28(DI), Z21
	VFMADD231PS  Z16, Z21, Z14
	VFMADD231PS  Z17, Z21, Z15
	ADDQ         $32, DI
	ADDQ         $128, SI
	DECQ         R10
	JNE          f32wloop

	// Store the C tile.
	MOVQ CX, DX
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z8, (DX)
	VMOVUPS Z9, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z10, (DX)
	VMOVUPS Z11, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z12, (DX)
	VMOVUPS Z13, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z14, (DX)
	VMOVUPS Z15, 64(DX)
	VZEROUPPER
	RET
