package tensor

import "math"

// Element-wise kernels, dispatched on ActiveKernel like the GEMM family:
// the three fused forms internal/nn needs of exp and erf, and the
// per-element Adam / NVLAMB update internal/optim runs at every step commit.
//
// KernelTiled runs the Go loops below and is bit-identical to them. For exp and erf, KernelFMA runs AVX2 assembly
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
// The optimizer kernels AdamUpdate and SubScaled hold a stronger contract:
// under every variant they equal the Go loops below bit for bit (a NaN
// matching a NaN; payloads are the hardware's). Their KernelFMA form runs
// the same IEEE operations four lanes at a time — separate VMULPD, VADDPD,
// VSUBPD, VDIVPD, VSQRTPD, no fused multiply-add — and the Go loops convert
// every product explicitly, which the spec says prevents fusion on any
// GOAMD64 level. AdamUpdate's two norms, Σw² and Σu², are in-kernel
// ascending scalar sums, lane by lane, continued in Go over a slice's last
// len%4 elements. Pinned by TestAdamUpdateBitIdentical,
// TestSubScaledBitIdentical and FuzzAdamUpdate.
//
// The row ops (rowops.go: LayerNorm, softmax's row passes, Dense's bias
// passes, the residual adds) hold the same contract, and every reduction
// among them keeps its Go loop's order by one rule, rows in lanes: a row's
// sum runs in one lane over the row's elements in ascending column order,
// four rows side by side (a column's sum likewise in one lane, in
// ascending row order). Cross-entropy still sums its exps in ascending
// scalar order itself.

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
		dx[i] = dy[i] * (cdf[i] + float64(v*pdf))
	}
}

// AdamStep is one step's scalars of the Adam update: the moment decays,
// the bias corrections BC1 = 1−β1ᵗ and BC2 = 1−β2ᵗ, ε, the decoupled
// weight decay, and PreScale, which multiplies every gradient first
// (NVLAMB's pre-normalization; 1 for plain Adam).
type AdamStep struct {
	Beta1, Beta2, BC1, BC2, Eps, WeightDecay, PreScale float64
}

// AdamUpdate runs one tensor's per-element Adam update: with g' =
// g[i]·PreScale it writes m[i] = β1·m[i] + (1−β1)·g', v[i] = β2·v[i] +
// ((1−β2)·g')·g' and u[i] = (m[i]/BC1)/(√(v[i]/BC2) + ε) +
// WeightDecay·w[i], and returns Σw[i]² and Σu[i]², each summed in
// ascending i. m, v, u and w have len(g). It allocates nothing.
func AdamUpdate(u, m, v, g, w []float64, s AdamStep) (wSq, uSq float64) {
	n := len(g)
	u, m, v, w = u[:n], m[:n], v[:n], w[:n]
	c1, c2 := 1-s.Beta1, 1-s.Beta2
	i := 0
	if ActiveKernel() == KernelFMA {
		i = n &^ 3
		wSq, uSq = adamUpdateFMA(u[:i], m[:i], v[:i], g[:i], w[:i],
			s.Beta1, c1, s.Beta2, c2, s.BC1, s.BC2, s.Eps, s.WeightDecay, s.PreScale)
	}
	for ; i < n; i++ {
		gi := g[i] * s.PreScale
		m[i] = float64(s.Beta1*m[i]) + float64(c1*gi)
		v[i] = float64(s.Beta2*v[i]) + float64(float64(c2*gi)*gi)
		ui := m[i]/s.BC1/(math.Sqrt(v[i]/s.BC2)+s.Eps) + float64(s.WeightDecay*w[i])
		u[i] = ui
		wSq += float64(w[i] * w[i])
		uSq += float64(ui * ui)
	}
	return wSq, uSq
}

// SubScaled writes dst[i] − scale·src[i] to dst[i]; dst has len(src).
func SubScaled(dst, src []float64, scale float64) {
	dst = dst[:len(src)]
	i := 0
	if ActiveKernel() == KernelFMA {
		i = len(src) &^ 3
		subScaledFMA(dst[:i], src[:i], scale)
	}
	for ; i < len(src); i++ {
		dst[i] -= float64(scale * src[i])
	}
}
