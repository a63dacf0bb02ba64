package tensor

import "math"

// Element-wise transcendental kernels, dispatched on ActiveKernel like the
// GEMM family: the three fused forms internal/nn needs of exp and erf.
//
// KernelScalar and KernelTiled run the math.Exp / math.Erf loops below and
// are bit-identical to them. KernelFMA runs AVX2 assembly
// (vecmath_amd64.s) under two contracts:
//
//   - Accuracy: exp and erf are within 2 ULP of math.Exp and math.Erf
//     (over 2e9 normal samples exp is 2 ULP off 15 times in a million and
//     never 3 — against the true value it is within 0.8, amd64's math.Exp
//     within 1.6 — and erf never more than 1 ULP off), with math.Exp's
//     special cases — NaN -> NaN, +Inf -> +Inf, -Inf -> 0, x > 709.78… ->
//     +Inf — and its gradual underflow below -708.39 reproduced, and
//     erf(NaN) = NaN, erf(±0) = ±0, erf(x) = ±1 from |x| = 6 to ±Inf exact.
//     One stated departure: amd64's assembly math.Exp already returns +Inf
//     from x = 709.436…, below its documented threshold; the kernel returns
//     the finite e**x up to the threshold. The arithmetic around them (x/√2,
//     1+erf, -x²/2, x - shift) rounds as the Go loops do, except Φ + x·φ in
//     GELUBackward, which is fused. Pinned by TestVecMathAccuracy,
//     TestVecMathSpecials and FuzzVecMath.
//   - Position independence: an element's result depends on its value
//     (and the call's shift) only — not on its index, the slice length,
//     alignment or its neighbours. So everything built on these kernels
//     keeps this repo's bit-identity contracts within the variant. Pinned
//     by TestVecMathPositionIndependent.
//
// Reductions are not part of the family: softmax and cross-entropy sum the
// exps in ascending scalar order themselves.

// ExpShift writes exp(src[i] - shift) to dst[i]. dst may be src.
func ExpShift(dst, src []float64, shift float64) {
	dst = dst[:len(src)]
	if ActiveKernel() == KernelFMA {
		expShiftFMA(dst, src, shift)
		return
	}
	for i, v := range src {
		dst[i] = math.Exp(v - shift)
	}
}

// GELUForward writes Φ(x[i]) = (1 + erf(x[i]/√2))/2 to cdf[i] and
// x[i]·Φ(x[i]) to y[i]. y may be x.
func GELUForward(y, cdf, x []float64) {
	y, cdf = y[:len(x)], cdf[:len(x)]
	if ActiveKernel() == KernelFMA {
		geluForwardFMA(y, cdf, x)
		return
	}
	for i, v := range x {
		// v*c equals 0.5*v*(1+erf) bit for bit: the halving is exact.
		c := 0.5 * (1 + math.Erf(v/math.Sqrt2))
		cdf[i] = c
		y[i] = v * c
	}
}

// invSqrt2Pi is φ(0), the standard normal density's constant.
var invSqrt2Pi = 1 / math.Sqrt(2*math.Pi)

// GELUBackward writes dy[i]·(cdf[i] + x[i]·φ(x[i])) to dx[i], where cdf is
// GELUForward's Φ of the same x and φ(x) = exp(-x²/2)/√(2π). dx may be dy.
func GELUBackward(dx, dy, x, cdf []float64) {
	dx, dy, cdf = dx[:len(x)], dy[:len(x)], cdf[:len(x)]
	if ActiveKernel() == KernelFMA {
		geluBackwardFMA(dx, dy, x, cdf)
		return
	}
	for i, v := range x {
		pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
		dx[i] = dy[i] * (cdf[i] + v*pdf)
	}
}
