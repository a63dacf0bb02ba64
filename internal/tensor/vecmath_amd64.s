//go:build amd64 && !purego

#include "textflag.h"

// Element-wise exp / erf kernels for KernelFMA: 4 float64 lanes per step.
// The contract (vecmath.go) is position independence: a lane's result is a
// function of its value alone. The branches below test all four lanes at
// once and only ever skip work whose result no lane would keep, and a
// slice's last 1-3 elements run the same code on a zero-padded register.
//
// vexp4<> and verf4<> are file-local subroutines with a register
// convention of their own: argument and result in Y0; vexp4 clobbers
// Y10-Y13, verf4 clobbers Y1-Y8, Y10-Y13, AX, BX and DX. Y9 and Y14 belong
// to the entry points.

// F64 defines a constant in all four lanes, usable as a 256-bit memory
// operand or broadcast from its first lane.
#define F64(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// acc = acc*x + c
#define HORNER(c, x, acc) \
	VFMADD213PD c<>(SB), x, acc

F64(absMask, 0x7fffffffffffffff)
F64(hiMask, 0xffffffff00000000)
F64(posInf, 0x7ff0000000000000)
F64(one, 1.0)
F64(half, 0.5)
F64(sqrt2, 1.4142135623730951)
F64(negHalf, -0.5)
F64(invSqrt2Pi, 0.3989422804014327)

// exp: math.Exp's thresholds and two-part ln 2; 1/n! for n = 2..13.
F64(expOverflow, 7.09782712893383973096e+02)
F64(expHi, 710.0)
F64(expLo, -746.0)
F64(expMagic, 6755399441055744.0) // 1.5 * 2**52
F64(expBias, 0x00000000000003ff)
F64(log2e, 1.44269504088896338700e+00)
F64(ln2Hi, 6.93147180369123816490e-01)
F64(ln2Lo, 1.90821492927058770002e-10)
F64(ec2, 5.0e-01)
F64(ec3, 1.66666666666666666667e-01)
F64(ec4, 4.16666666666666666667e-02)
F64(ec5, 8.33333333333333333333e-03)
F64(ec6, 1.38888888888888888889e-03)
F64(ec7, 1.98412698412698412698e-04)
F64(ec8, 2.48015873015873015873e-05)
F64(ec9, 2.75573192239858906526e-06)
F64(ec10, 2.75573192239858906526e-07)
F64(ec11, 2.50521083854417187751e-08)
F64(ec12, 2.08767569878680989792e-09)
F64(ec13, 1.60590438368216145994e-10)

// erf: the msun coefficients of math.Erf (math/erf.go).
F64(erfSmall, 0.84375)
F64(erfMid, 1.25)
F64(erfSplit, 2.857142857142857) // 1/0.35
F64(erfOne, 6.0)
F64(erfShift, -0.5625)
F64(erx, 8.45062911510467529297e-01)
F64(pp0, 1.28379167095512558561e-01)
F64(pp1, -3.25042107247001499370e-01)
F64(pp2, -2.84817495755985104766e-02)
F64(pp3, -5.77027029648944159157e-03)
F64(pp4, -2.37630166566501626084e-05)
F64(qq1, 3.97917223959155352819e-01)
F64(qq2, 6.50222499887672944485e-02)
F64(qq3, 5.08130628187576562776e-03)
F64(qq4, 1.32494738004321644526e-04)
F64(qq5, -3.96022827877536812320e-06)
F64(pa0, -2.36211856075265944077e-03)
F64(pa1, 4.14856118683748331666e-01)
F64(pa2, -3.72207876035701323847e-01)
F64(pa3, 3.18346619901161753674e-01)
F64(pa4, -1.10894694282396677476e-01)
F64(pa5, 3.54783043256182359371e-02)
F64(pa6, -2.16637559486879084300e-03)
F64(qa1, 1.06420880400844228286e-01)
F64(qa2, 5.40397917702171048937e-01)
F64(qa3, 7.18286544141962662868e-02)
F64(qa4, 1.26171219808761642112e-01)
F64(qa5, 1.36370839120290507362e-02)
F64(qa6, 1.19844998467991074170e-02)
F64(ra0, -9.86494403484714822705e-03)
F64(ra1, -6.93858572707181764372e-01)
F64(ra2, -1.05586262253232909814e+01)
F64(ra3, -6.23753324503260060396e+01)
F64(ra4, -1.62396669462573470355e+02)
F64(ra5, -1.84605092906711035994e+02)
F64(ra6, -8.12874355063065934246e+01)
F64(ra7, -9.81432934416914548592e+00)
F64(sa1, 1.96512716674392571292e+01)
F64(sa2, 1.37657754143519042600e+02)
F64(sa3, 4.34565877475229228821e+02)
F64(sa4, 6.45387271733267880336e+02)
F64(sa5, 4.29008140027567833386e+02)
F64(sa6, 1.08635005541779435134e+02)
F64(sa7, 6.57024977031928170135e+00)
F64(sa8, -6.04244152148580987438e-02)
F64(rb0, -9.86494292470009928597e-03)
F64(rb1, -7.99283237680523006574e-01)
F64(rb2, -1.77579549177547519889e+01)
F64(rb3, -1.60636384855821916062e+02)
F64(rb4, -6.37566443368389627722e+02)
F64(rb5, -1.02509513161107724954e+03)
F64(rb6, -4.83519191608651397019e+02)
F64(sb1, 3.03380607434824582924e+01)
F64(sb2, 3.25792512996573918826e+02)
F64(sb3, 1.53672958608443695994e+03)
F64(sb4, 3.19985821950859553908e+03)
F64(sb5, 2.55305040643316442583e+03)
F64(sb6, 4.74528541206955367215e+02)
F64(sb7, -2.24409524465858183362e+01)

// tailMask + 32 - 8*r is the VMASKMOVPD mask selecting lanes 0..r-1.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// vexp4: Y0 = exp(Y0).
//
// k = round(x*log2 e) by the add-a-magic-number trick, which leaves k as a
// double in Y10 and as a two's-complement integer in the low dword of each
// qword of Y11 (all the shifts below need). r = x - k*ln2Hi - k*ln2Lo (|r| <= ln2/2, the first fused
// step exact), exp(r) by a degree-13 Taylor polynomial in Horner form
// (truncation < 2**-57 relative), and 2**k applied as two factors
// 2**(k>>1) * 2**(k-(k>>1)) so that k = 1024 near the overflow threshold
// and k < -1022 (gradual underflow, one rounding) both work. x is clamped
// to [-746, 710] first, with x as VMIN/VMAX's second source so a NaN
// survives; math.Exp's x > Overflow => +Inf is blended in at the end.
TEXT vexp4<>(SB), NOSPLIT, $0-0
	VCMPPD       $0x1e, expOverflow<>(SB), Y0, Y12 // x > Overflow (false for NaN)
	VMOVUPD      expHi<>(SB), Y13
	VMINPD       Y0, Y13, Y0
	VMOVUPD      expLo<>(SB), Y13
	VMAXPD       Y0, Y13, Y0
	VMOVUPD      log2e<>(SB), Y11
	VFMADD213PD  expMagic<>(SB), Y0, Y11           // x*log2e + magic
	VSUBPD       expMagic<>(SB), Y11, Y10          // k
	VFNMADD231PD ln2Hi<>(SB), Y10, Y0
	VFNMADD231PD ln2Lo<>(SB), Y10, Y0              // r
	VMOVUPD      ec13<>(SB), Y10
	HORNER(ec12, Y0, Y10)
	HORNER(ec11, Y0, Y10)
	HORNER(ec10, Y0, Y10)
	HORNER(ec9, Y0, Y10)
	HORNER(ec8, Y0, Y10)
	HORNER(ec7, Y0, Y10)
	HORNER(ec6, Y0, Y10)
	HORNER(ec5, Y0, Y10)
	HORNER(ec4, Y0, Y10)
	HORNER(ec3, Y0, Y10)
	HORNER(ec2, Y0, Y10)
	HORNER(one, Y0, Y10)
	HORNER(one, Y0, Y10)                           // exp(r)
	VPSRAD       $1, Y11, Y13                      // k>>1
	VPSUBD       Y13, Y11, Y11                     // k - (k>>1)
	VPADDD       expBias<>(SB), Y13, Y13
	VPADDD       expBias<>(SB), Y11, Y11
	VPSLLQ       $52, Y13, Y13
	VPSLLQ       $52, Y11, Y11
	VMULPD       Y13, Y10, Y10
	VMULPD       Y11, Y10, Y0
	VBLENDVPD    Y12, posInf<>(SB), Y0, Y0
	RET

// verf4: Y0 = erf(Y0), math.Erf's piecewise rationals with a = |x|:
//
//	a < 0.84375         x + x*P(x*x)/Q(x*x)
//	0.84375 <= a < 1.25 sign * (erx + P(a-1)/Q(a-1))
//	1.25 <= a           sign * (1 - exp(-z*z-0.5625)*exp((z-a)*(z+a)+R(s)/S(s))/a),
//	                    s = 1/(a*a), z = a to 21 bits, R/S one of two sets
//	                    split at a = 1/0.35; a is clamped to 6, where the
//	                    expression is exactly 1
//
// The first range is always evaluated (it also carries a NaN through);
// each later one only when VMOVMSKPD says some lane is in it, and its
// result is blended over those lanes alone.
TEXT verf4<>(SB), NOSPLIT, $0-0
	VANDPD       absMask<>(SB), Y0, Y1   // Y1 = a
	VXORPD       Y1, Y0, Y2              // Y2 = sign bit
	VMULPD       Y0, Y0, Y3              // z = x*x
	VMOVUPD      pp4<>(SB), Y4
	HORNER(pp3, Y3, Y4)
	HORNER(pp2, Y3, Y4)
	HORNER(pp1, Y3, Y4)
	HORNER(pp0, Y3, Y4)
	VMOVUPD      qq5<>(SB), Y5
	HORNER(qq4, Y3, Y5)
	HORNER(qq3, Y3, Y5)
	HORNER(qq2, Y3, Y5)
	HORNER(qq1, Y3, Y5)
	HORNER(one, Y3, Y5)
	VDIVPD       Y5, Y4, Y6
	VFMADD213PD  Y0, Y0, Y6              // Y6 = x + x*y, the result so far
	VCMPPD       $0x11, erfSmall<>(SB), Y1, Y7 // a < 0.84375
	VMOVMSKPD    Y7, AX
	CMPL         AX, $15
	JEQ          erfdone

	VCMPPD       $0x11, erfMid<>(SB), Y1, Y8
	VANDNPD      Y8, Y7, Y8              // Y8 = 0.84375 <= a < 1.25
	VMOVMSKPD    Y8, AX
	TESTL        AX, AX
	JZ           erftail
	VSUBPD       one<>(SB), Y1, Y3       // s = a - 1
	VMOVUPD      pa6<>(SB), Y4
	HORNER(pa5, Y3, Y4)
	HORNER(pa4, Y3, Y4)
	HORNER(pa3, Y3, Y4)
	HORNER(pa2, Y3, Y4)
	HORNER(pa1, Y3, Y4)
	HORNER(pa0, Y3, Y4)
	VMOVUPD      qa6<>(SB), Y5
	HORNER(qa5, Y3, Y5)
	HORNER(qa4, Y3, Y5)
	HORNER(qa3, Y3, Y5)
	HORNER(qa2, Y3, Y5)
	HORNER(qa1, Y3, Y5)
	HORNER(one, Y3, Y5)
	VDIVPD       Y5, Y4, Y4
	VADDPD       erx<>(SB), Y4, Y4
	VORPD        Y2, Y4, Y4
	VBLENDVPD    Y8, Y4, Y6, Y6

erftail:
	VCMPPD       $0x1d, erfMid<>(SB), Y1, Y7 // a >= 1.25 (false for NaN)
	VMOVMSKPD    Y7, AX
	TESTL        AX, AX
	JZ           erfdone
	VMINPD       erfOne<>(SB), Y1, Y1    // a = min(a, 6)
	VMULPD       Y1, Y1, Y3
	VMOVUPD      one<>(SB), Y13
	VDIVPD       Y3, Y13, Y3             // s = 1/(a*a)
	VCMPPD       $0x11, erfSplit<>(SB), Y1, Y8 // a < 1/0.35
	VMOVMSKPD    Y8, DX
	MOVL         AX, BX
	ANDL         DX, BX                  // lanes wanting Ra/Sa
	NOTL         DX
	ANDL         AX, DX                  // lanes wanting Rb/Sb
	TESTL        BX, BX
	JZ           erfsetb
	VMOVUPD      ra7<>(SB), Y4
	HORNER(ra6, Y3, Y4)
	HORNER(ra5, Y3, Y4)
	HORNER(ra4, Y3, Y4)
	HORNER(ra3, Y3, Y4)
	HORNER(ra2, Y3, Y4)
	HORNER(ra1, Y3, Y4)
	HORNER(ra0, Y3, Y4)
	VMOVUPD      sa8<>(SB), Y5
	HORNER(sa7, Y3, Y5)
	HORNER(sa6, Y3, Y5)
	HORNER(sa5, Y3, Y5)
	HORNER(sa4, Y3, Y5)
	HORNER(sa3, Y3, Y5)
	HORNER(sa2, Y3, Y5)
	HORNER(sa1, Y3, Y5)
	HORNER(one, Y3, Y5)
	VDIVPD       Y5, Y4, Y4

erfsetb:
	TESTL        DX, DX
	JZ           erfexp
	VMOVUPD      rb6<>(SB), Y10
	HORNER(rb5, Y3, Y10)
	HORNER(rb4, Y3, Y10)
	HORNER(rb3, Y3, Y10)
	HORNER(rb2, Y3, Y10)
	HORNER(rb1, Y3, Y10)
	HORNER(rb0, Y3, Y10)
	VMOVUPD      sb7<>(SB), Y11
	HORNER(sb6, Y3, Y11)
	HORNER(sb5, Y3, Y11)
	HORNER(sb4, Y3, Y11)
	HORNER(sb3, Y3, Y11)
	HORNER(sb2, Y3, Y11)
	HORNER(sb1, Y3, Y11)
	HORNER(one, Y3, Y11)
	VDIVPD       Y11, Y10, Y10
	VBLENDVPD    Y8, Y4, Y10, Y4

erfexp:
	VANDPD       hiMask<>(SB), Y1, Y5    // z
	VSUBPD       Y1, Y5, Y8
	VADDPD       Y1, Y5, Y11
	VFMADD213PD  Y4, Y11, Y8             // Y8 = (z-a)*(z+a) + R/S
	VMOVUPD      erfShift<>(SB), Y0
	VFNMADD231PD Y5, Y5, Y0              // -z*z - 0.5625
	CALL         vexp4<>(SB)
	VMOVAPD      Y0, Y5
	VMOVAPD      Y8, Y0
	CALL         vexp4<>(SB)
	VMULPD       Y5, Y0, Y0
	VDIVPD       Y1, Y0, Y0
	VMOVUPD      one<>(SB), Y13
	VSUBPD       Y0, Y13, Y0             // 1 - r/a
	VORPD        Y2, Y0, Y0
	VBLENDVPD    Y7, Y0, Y6, Y6

erfdone:
	VMOVAPD Y6, Y0
	RET

// LOADTAIL leaves in Y9 the mask for the last CX (1..3) elements.
#define LOADTAIL \
	LEAQ    tailMask<>+32(SB), AX; \
	SHLQ    $3, CX; \
	SUBQ    CX, AX; \
	VMOVDQU (AX), Y9

// func expShiftFMA(dst, src []float64, shift float64)
TEXT ·expShiftFMA(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD shift+48(FP), Y14

expshiftloop:
	CMPQ    CX, $4
	JLT     expshifttail
	VMOVUPD (SI), Y0
	VSUBPD  Y14, Y0, Y0
	CALL    vexp4<>(SB)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     expshiftloop

expshifttail:
	TESTQ      CX, CX
	JZ         expshiftdone
	LOADTAIL
	VMASKMOVPD (SI), Y9, Y0
	VSUBPD     Y14, Y0, Y0
	CALL       vexp4<>(SB)
	VMASKMOVPD Y0, Y9, (DI)

expshiftdone:
	VZEROUPPER
	RET

// func erfFMA(dst, src []float64)
TEXT ·erfFMA(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

erfloop:
	CMPQ    CX, $4
	JLT     erflooptail
	VMOVUPD (SI), Y0
	CALL    verf4<>(SB)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     erfloop

erflooptail:
	TESTQ      CX, CX
	JZ         erfloopdone
	LOADTAIL
	VMASKMOVPD (SI), Y9, Y0
	CALL       verf4<>(SB)
	VMASKMOVPD Y0, Y9, (DI)

erfloopdone:
	VZEROUPPER
	RET

// GELUFWD turns x/sqrt2 in Y0 and x in Y14 into Φ (Y0) and x*Φ (Y1).
#define GELUFWD \
	CALL         verf4<>(SB); \
	VADDPD       one<>(SB), Y0, Y0; \
	VMULPD       half<>(SB), Y0, Y0; \
	VMULPD       Y0, Y14, Y1

// func geluForwardFMA(y, cdf, x []float64)
TEXT ·geluForwardFMA(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ cdf_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX

gelufwdloop:
	CMPQ         CX, $4
	JLT          gelufwdtail
	VMOVUPD      (SI), Y14
	VDIVPD       sqrt2<>(SB), Y14, Y0
	GELUFWD
	VMOVUPD      Y0, (R8)
	VMOVUPD      Y1, (DI)
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, DI
	SUBQ         $4, CX
	JMP          gelufwdloop

gelufwdtail:
	TESTQ        CX, CX
	JZ           gelufwddone
	LOADTAIL
	VMASKMOVPD   (SI), Y9, Y14
	VDIVPD       sqrt2<>(SB), Y14, Y0
	GELUFWD
	VMASKMOVPD   Y0, Y9, (R8)
	VMASKMOVPD   Y1, Y9, (DI)

gelufwddone:
	VZEROUPPER
	RET

// GELUBWD turns x (Y14), Φ (Y1) and dy (Y2) into dy*(Φ + x*φ(x)) in Y0.
#define GELUBWD \
	VMULPD       negHalf<>(SB), Y14, Y0; \
	VMULPD       Y14, Y0, Y0; \
	CALL         vexp4<>(SB); \
	VMULPD       invSqrt2Pi<>(SB), Y0, Y0; \
	VFMADD213PD  Y1, Y14, Y0; \
	VMULPD       Y2, Y0, Y0

// func geluBackwardFMA(dx, dy, x, cdf []float64)
TEXT ·geluBackwardFMA(SB), NOSPLIT, $0-96
	MOVQ dx_base+0(FP), DI
	MOVQ dy_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ cdf_base+72(FP), R9

gelubwdloop:
	CMPQ    CX, $4
	JLT     gelubwdtail
	VMOVUPD (SI), Y14
	VMOVUPD (R9), Y1
	VMOVUPD (R8), Y2
	GELUBWD
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     gelubwdloop

gelubwdtail:
	TESTQ      CX, CX
	JZ         gelubwddone
	LOADTAIL
	VMASKMOVPD (SI), Y9, Y14
	VMASKMOVPD (R9), Y9, Y1
	VMASKMOVPD (R8), Y9, Y2
	GELUBWD
	VMASKMOVPD Y0, Y9, (DI)

gelubwddone:
	VZEROUPPER
	RET
