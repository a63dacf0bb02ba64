//go:build amd64 && !purego

#include "textflag.h"

// Panel packers of the fma variant (pack.go states the panel layout). Each
// is an exact copy of packRows / packCols: every element is moved, or
// narrowed to float32 by VCVTPD2PS / VCVTSD2SS (the instruction Go's
// float32 conversion compiles to, so the bits are the same), and the lanes
// past the last are stored as +0. Arguments, as pack.go's vector wrappers
// check them: width a multiple of 4, 1 <= lanes <= width, kc >= 1, dst
// holding kc*width elements and src every element the panel reads.
//
// Registers shared by the four functions: DI dst, SI src, R8 source stride
// in bytes, R9 dst step stride in bytes (width elements), R10 lanes left,
// CX kc (or its remainder), Y8 zero.

// ROWS4X4(P) transposes the 4x4 double block at P (rows P, P+R8, P+2*R8,
// P+R11; R11 = 3*R8) into Y4..Y7, one 4-lane step each: the two halves of
// rows a and c, b and d meet in one register, then one unpack per step.
#define ROWS4X4(P) \
	VMOVUPD     (P), X0; \
	VINSERTF128 $1, (P)(R8*2), Y0, Y0; \
	VMOVUPD     (P)(R8*1), X1; \
	VINSERTF128 $1, (P)(R11*1), Y1, Y1; \
	VMOVUPD     16(P), X2; \
	VINSERTF128 $1, 16(P)(R8*2), Y2, Y2; \
	VMOVUPD     16(P)(R8*1), X3; \
	VINSERTF128 $1, 16(P)(R11*1), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, Y4; \
	VUNPCKHPD   Y1, Y0, Y5; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7

// ROWS4X1(P) gathers one step of the four rows at P into Y4.
#define ROWS4X1(P) \
	VMOVSD      (P), X0; \
	VMOVHPD     (P)(R8*1), X0, X0; \
	VMOVSD      (P)(R8*2), X1; \
	VMOVHPD     (P)(R11*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y4

// Stores of four (ST*4) or one (ST*1) 4-lane steps at lane byte offset OFF
// of the dst step R14 (R13 = 3*R9).
#define ST64X4(OFF) \
	VMOVUPD Y4, OFF(R14); \
	VMOVUPD Y5, OFF(R14)(R9*1); \
	VMOVUPD Y6, OFF(R14)(R9*2); \
	VMOVUPD Y7, OFF(R14)(R13*1)

#define ST64X1(OFF) \
	VMOVUPD Y4, OFF(R14)

#define ST32X4(OFF) \
	VCVTPD2PSY Y4, X4; \
	VCVTPD2PSY Y5, X5; \
	VCVTPD2PSY Y6, X6; \
	VCVTPD2PSY Y7, X7; \
	VMOVUPS    X4, OFF(R14); \
	VMOVUPS    X5, OFF(R14)(R9*1); \
	VMOVUPS    X6, OFF(R14)(R9*2); \
	VMOVUPS    X7, OFF(R14)(R13*1)

#define ST32X1(OFF) \
	VCVTPD2PSY Y4, X4; \
	VMOVUPS    X4, OFF(R14)

// Common prologue of the row packers: SH is log2 of the dst element size.
#define ROWSPROLOGUE(SH) \
	MOVQ   dst_base+0(FP), DI; \
	MOVQ   width+24(FP), R9; \
	SHLQ   $SH, R9; \
	MOVQ   src_base+32(FP), SI; \
	MOVQ   ld+56(FP), R8; \
	SHLQ   $3, R8; \
	MOVQ   lanes+64(FP), R10; \
	MOVQ   kc+72(FP), CX; \
	LEAQ   (R8)(R8*2), R11; \
	LEAQ   (R9)(R9*2), R13; \
	MOVQ   CX, BX; \
	SHRQ   $2, BX; \
	ANDQ   $3, CX; \
	VXORPD Y8, Y8, Y8

// func packRowsF64(dst []float64, width int, src []float64, ld, lanes, kc int)
//
// dst[t*width+l] = src[l*ld+t]: eight rows at a time (two 4x4 transposes
// per four steps, one 64-byte dst run per step at width 8), then four, then
// the 1-3 rows of an edge panel one element at a time over zeroed lanes.
TEXT ·packRowsF64(SB), NOSPLIT, $0-80
	ROWSPROLOGUE(3)

r64g8:
	CMPQ R10, $8
	JLT  r64g4
	MOVQ SI, DX
	LEAQ (SI)(R8*4), R12
	MOVQ DI, R14
	MOVQ BX, AX
	TESTQ AX, AX
	JEQ  r64g8tail

r64g8loop:
	ROWS4X4(DX)
	ST64X4(0)
	ROWS4X4(R12)
	ST64X4(32)
	ADDQ $32, DX
	ADDQ $32, R12
	LEAQ (R14)(R9*4), R14
	DECQ AX
	JNE  r64g8loop

r64g8tail:
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ  r64g8next

r64g8tailloop:
	ROWS4X1(DX)
	ST64X1(0)
	ROWS4X1(R12)
	ST64X1(32)
	ADDQ $8, DX
	ADDQ $8, R12
	ADDQ R9, R14
	DECQ AX
	JNE  r64g8tailloop

r64g8next:
	LEAQ (SI)(R8*8), SI
	ADDQ $64, DI
	SUBQ $8, R10
	JMP  r64g8

r64g4:
	CMPQ R10, $4
	JLT  r64zero
	MOVQ SI, DX
	MOVQ DI, R14
	MOVQ BX, AX
	TESTQ AX, AX
	JEQ  r64g4tail

r64g4loop:
	ROWS4X4(DX)
	ST64X4(0)
	ADDQ $32, DX
	LEAQ (R14)(R9*4), R14
	DECQ AX
	JNE  r64g4loop

r64g4tail:
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ  r64g4next

r64g4tailloop:
	ROWS4X1(DX)
	ST64X1(0)
	ADDQ $8, DX
	ADDQ R9, R14
	DECQ AX
	JNE  r64g4tailloop

r64g4next:
	LEAQ (SI)(R8*4), SI
	ADDQ $32, DI
	SUBQ $4, R10

r64zero:
	// Zero every lane from here to the width, the edge rows' lanes
	// included; the edge rows then overwrite theirs.
	MOVQ  width+24(FP), AX
	SUBQ  lanes+64(FP), AX
	ADDQ  R10, AX
	JEQ   r64edge
	MOVQ  kc+72(FP), DX
	MOVQ  DI, R14

r64zerostep:
	MOVQ R14, R12
	MOVQ AX, BX

r64zerolanes:
	VMOVUPD Y8, (R12)
	ADDQ    $32, R12
	SUBQ    $4, BX
	JNE     r64zerolanes
	ADDQ    R9, R14
	DECQ    DX
	JNE     r64zerostep

r64edge:
	TESTQ R10, R10
	JEQ   r64done

r64edgerow:
	MOVQ kc+72(FP), DX
	MOVQ SI, R12
	MOVQ DI, R14

r64edgestep:
	VMOVSD (R12), X0
	VMOVSD X0, (R14)
	ADDQ   $8, R12
	ADDQ   R9, R14
	DECQ   DX
	JNE    r64edgestep
	ADDQ   R8, SI
	ADDQ   $8, DI
	DECQ   R10
	JNE    r64edgerow

r64done:
	VZEROUPPER
	RET

// func packRowsF32(dst []float32, width int, src []float64, ld, lanes, kc int)
//
// packRowsF64 narrowing: the same transposes, each 4-lane step converted by
// one VCVTPD2PS before its 16-byte store.
TEXT ·packRowsF32(SB), NOSPLIT, $0-80
	ROWSPROLOGUE(2)

r32g8:
	CMPQ R10, $8
	JLT  r32g4
	MOVQ SI, DX
	LEAQ (SI)(R8*4), R12
	MOVQ DI, R14
	MOVQ BX, AX
	TESTQ AX, AX
	JEQ  r32g8tail

r32g8loop:
	ROWS4X4(DX)
	ST32X4(0)
	ROWS4X4(R12)
	ST32X4(16)
	ADDQ $32, DX
	ADDQ $32, R12
	LEAQ (R14)(R9*4), R14
	DECQ AX
	JNE  r32g8loop

r32g8tail:
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ  r32g8next

r32g8tailloop:
	ROWS4X1(DX)
	ST32X1(0)
	ROWS4X1(R12)
	ST32X1(16)
	ADDQ $8, DX
	ADDQ $8, R12
	ADDQ R9, R14
	DECQ AX
	JNE  r32g8tailloop

r32g8next:
	LEAQ (SI)(R8*8), SI
	ADDQ $32, DI
	SUBQ $8, R10
	JMP  r32g8

r32g4:
	CMPQ R10, $4
	JLT  r32zero
	MOVQ SI, DX
	MOVQ DI, R14
	MOVQ BX, AX
	TESTQ AX, AX
	JEQ  r32g4tail

r32g4loop:
	ROWS4X4(DX)
	ST32X4(0)
	ADDQ $32, DX
	LEAQ (R14)(R9*4), R14
	DECQ AX
	JNE  r32g4loop

r32g4tail:
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ  r32g4next

r32g4tailloop:
	ROWS4X1(DX)
	ST32X1(0)
	ADDQ $8, DX
	ADDQ R9, R14
	DECQ AX
	JNE  r32g4tailloop

r32g4next:
	LEAQ (SI)(R8*4), SI
	ADDQ $16, DI
	SUBQ $4, R10

r32zero:
	MOVQ  width+24(FP), AX
	SUBQ  lanes+64(FP), AX
	ADDQ  R10, AX
	JEQ   r32edge
	MOVQ  kc+72(FP), DX
	MOVQ  DI, R14

r32zerostep:
	MOVQ R14, R12
	MOVQ AX, BX

r32zerolanes:
	VMOVUPS X8, (R12)
	ADDQ    $16, R12
	SUBQ    $4, BX
	JNE     r32zerolanes
	ADDQ    R9, R14
	DECQ    DX
	JNE     r32zerostep

r32edge:
	TESTQ R10, R10
	JEQ   r32done

r32edgerow:
	MOVQ kc+72(FP), DX
	MOVQ SI, R12
	MOVQ DI, R14

r32edgestep:
	VCVTSD2SS (R12), X0, X0
	VMOVSS    X0, (R14)
	ADDQ      $8, R12
	ADDQ      R9, R14
	DECQ      DX
	JNE       r32edgestep
	ADDQ      R8, SI
	ADDQ      $4, DI
	DECQ      R10
	JNE       r32edgerow

r32done:
	VZEROUPPER
	RET

// packmask<> holds the VMASKMOVPD masks of an edge column group: the four
// qwords at byte offset 8*(3-r) enable the first r lanes, r = 0..3.
DATA packmask<>+0(SB)/8, $-1
DATA packmask<>+8(SB)/8, $-1
DATA packmask<>+16(SB)/8, $-1
DATA packmask<>+24(SB)/8, $0
DATA packmask<>+32(SB)/8, $0
DATA packmask<>+40(SB)/8, $0
DATA packmask<>+48(SB)/8, $0
GLOBL packmask<>(SB), RODATA|NOPTR, $56

// Common prologue of the column packers; on a full panel (lanes == width)
// it jumps to full, otherwise it leaves the edge panel's counts: R10 full
// 4-lane groups, R11 edge lanes (0-3, with their mask in Y15), R13 zero
// groups after them.
#define COLSPROLOGUE(SH, full) \
	MOVQ   dst_base+0(FP), DI; \
	MOVQ   width+24(FP), R9; \
	MOVQ   src_base+32(FP), SI; \
	MOVQ   ld+56(FP), R8; \
	SHLQ   $3, R8; \
	MOVQ   lanes+64(FP), R10; \
	MOVQ   kc+72(FP), CX; \
	VXORPD Y8, Y8, Y8; \
	CMPQ   R10, R9; \
	JEQ    full; \
	LEAQ   3(R10), R13; \
	ANDQ   $-4, R13; \
	NEGQ   R13; \
	ADDQ   R9, R13; \
	SHRQ   $2, R13; \
	SHLQ   $SH, R9; \
	MOVQ   R10, R11; \
	ANDQ   $3, R11; \
	SHRQ   $2, R10; \
	MOVQ   $3, AX; \
	SUBQ   R11, AX; \
	LEAQ   packmask<>(SB), DX; \
	VMOVUPD (DX)(AX*8), Y15

// func packColsF64(dst []float64, width int, src []float64, ld, lanes, kc int)
//
// dst[t*width+l] = src[t*ld+l]: each step's run is contiguous in both, so a
// full panel is 1, 2 or 4 vector copies per step (widths 4, 8 and any
// multiple of 16); an edge panel copies its full groups, loads the last
// 1-3 lanes with VMASKMOVPD (the masked lanes read as +0 and are never
// touched in memory) and zeroes the rest.
TEXT ·packColsF64(SB), NOSPLIT, $0-80
	COLSPROLOGUE(3, c64full)

c64step:
	MOVQ SI, R12
	MOVQ DI, R14
	MOVQ R10, AX
	TESTQ AX, AX
	JEQ  c64edge

c64group:
	VMOVUPD (R12), Y0
	VMOVUPD Y0, (R14)
	ADDQ    $32, R12
	ADDQ    $32, R14
	DECQ    AX
	JNE     c64group

c64edge:
	TESTQ R11, R11
	JEQ   c64zero
	VMASKMOVPD (R12), Y15, Y0
	VMOVUPD    Y0, (R14)
	ADDQ       $32, R14

c64zero:
	MOVQ  R13, AX
	TESTQ AX, AX
	JEQ   c64next

c64zerogroup:
	VMOVUPD Y8, (R14)
	ADDQ    $32, R14
	DECQ    AX
	JNE     c64zerogroup

c64next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNE  c64step
	VZEROUPPER
	RET

c64full:
	CMPQ R9, $4
	JEQ  c64w4
	CMPQ R9, $8
	JEQ  c64w8
	TESTQ $15, R9
	JNE  c64step4 // a width this file has no unrolled form for
	SHLQ $3, R9

c64w16:
	MOVQ SI, R12
	MOVQ R9, AX

c64w16chunk:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, R12
	ADDQ    $128, DI
	SUBQ    $128, AX
	JNE     c64w16chunk
	ADDQ    R8, SI
	DECQ    CX
	JNE     c64w16
	VZEROUPPER
	RET

c64step4:
	// Full groups only: the edge path with no edge and no zero groups.
	SHRQ $2, R10
	XORQ R11, R11
	XORQ R13, R13
	SHLQ $3, R9
	JMP  c64step

c64w4:
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    R8, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     c64w4
	VZEROUPPER
	RET

c64w8:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNE     c64w8
	VZEROUPPER
	RET

// func packColsF32(dst []float32, width int, src []float64, ld, lanes, kc int)
//
// packColsF64 narrowing: each 4-lane load is converted by one VCVTPD2PS
// and stored as 16 bytes.
TEXT ·packColsF32(SB), NOSPLIT, $0-80
	COLSPROLOGUE(2, c32full)

c32step:
	MOVQ SI, R12
	MOVQ DI, R14
	MOVQ R10, AX
	TESTQ AX, AX
	JEQ  c32edge

c32group:
	VCVTPD2PSY (R12), X0
	VMOVUPS    X0, (R14)
	ADDQ       $32, R12
	ADDQ       $16, R14
	DECQ       AX
	JNE        c32group

c32edge:
	TESTQ R11, R11
	JEQ   c32zero
	VMASKMOVPD (R12), Y15, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (R14)
	ADDQ       $16, R14

c32zero:
	MOVQ  R13, AX
	TESTQ AX, AX
	JEQ   c32next

c32zerogroup:
	VMOVUPS X8, (R14)
	ADDQ    $16, R14
	DECQ    AX
	JNE     c32zerogroup

c32next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNE  c32step
	VZEROUPPER
	RET

c32full:
	CMPQ R9, $8
	JEQ  c32w8
	TESTQ $15, R9
	JNE  c32step4
	SHLQ $2, R9

c32w16:
	MOVQ SI, R12
	MOVQ R9, AX

c32w16chunk:
	VCVTPD2PSY (R12), X0
	VCVTPD2PSY 32(R12), X1
	VCVTPD2PSY 64(R12), X2
	VCVTPD2PSY 96(R12), X3
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	VMOVUPS    X2, 32(DI)
	VMOVUPS    X3, 48(DI)
	ADDQ       $128, R12
	ADDQ       $64, DI
	SUBQ       $64, AX
	JNE        c32w16chunk
	ADDQ       R8, SI
	DECQ       CX
	JNE        c32w16
	VZEROUPPER
	RET

c32step4:
	SHRQ $2, R10
	XORQ R11, R11
	XORQ R13, R13
	SHLQ $2, R9
	JMP  c32step

c32w8:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, 16(DI)
	ADDQ       R8, SI
	ADDQ       $32, DI
	DECQ       CX
	JNE        c32w8
	VZEROUPPER
	RET
