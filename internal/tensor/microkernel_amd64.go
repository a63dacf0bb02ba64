//go:build amd64 && !purego

package tensor

// AVX2+FMA micro-kernels (microkernel_amd64.s). Same tile contract as the
// Go kernels in microkernel.go, but each element's per-step update is a
// single fused multiply-add (one rounding instead of two), so KernelFMA
// results differ from KernelTiled by at most the fused-rounding delta. The reduction order stays ascending k per element, so
// all worker-count and decomposition bit-identity contracts hold within
// the variant. Only called when haveFMAKernels is true.

// fma8x4f64 updates an 8x4 float64 tile: 8 YMM accumulators of 4 doubles.
//
//go:noescape
func fma8x4f64(c []float64, ldc int, ap, bp []float64, kc int)

// fma8x8f32 updates an 8x8 float32 tile: 8 YMM accumulators of 8 floats.
//
//go:noescape
func fma8x8f32(c []float32, ldc int, ap, bp []float32, kc int)

// fma8x16f64 and fma8x32f32 are the same tiles at 512 bits — sixteen ZMM
// accumulators, two B-panel vectors per step. Each element's reduction is
// fma8x4f64's / fma8x8f32's, so the results are bit-identical
// (TestFMAWidthIdentity). Only called when haveAVX512Kernels is true.
//
//go:noescape
func fma8x16f64(c []float64, ldc int, ap, bp []float64, kc int)

//go:noescape
func fma8x32f32(c []float32, ldc int, ap, bp []float32, kc int)

// Panel packers (pack_amd64.s), exact copies of packRows / packCols for the
// fma variant's panels; packRowsVec / packColsVec check their arguments.
//
//go:noescape
func packRowsF64(dst []float64, width int, src []float64, ld, lanes, kc int)

//go:noescape
func packRowsF32(dst []float32, width int, src []float64, ld, lanes, kc int)

//go:noescape
func packColsF64(dst []float64, width int, src []float64, ld, lanes, kc int)

//go:noescape
func packColsF32(dst []float32, width int, src []float64, ld, lanes, kc int)

// Element-wise exp / erf kernels (vecmath_amd64.s), 4 float64 lanes per
// step; vecmath.go states their accuracy and position-independence
// contract. All slices of one call have the length of the input slice.

//go:noescape
func expShiftFMA(dst, src []float64, shift float64)

//go:noescape
func erfFMA(dst, src []float64)

//go:noescape
func geluForwardFMA(y, cdf, x []float64)

//go:noescape
func geluBackwardFMA(dx, dy, x, cdf []float64)

// The optimizer kernels (vecmath_amd64.s), bit-identical to vecmath.go's
// Go loops. Every slice has the length of g (of src), a multiple of 4.

//go:noescape
func adamUpdateFMA(u, m, v, g, w []float64, beta1, c1, beta2, c2, bc1, bc2, eps, wd, pre float64) (wSq, uSq float64)

//go:noescape
func subScaledFMA(dst, src []float64, scale float64)

// The row-op kernels (rowops_amd64.s), bit-identical to rowops.go's Go
// loops. The row kernels take a multiple of 4 rows.

//go:noescape
func layerNormFwdFMA(y, xhat, invStd, x, gain, bias []float64, eps float64)

//go:noescape
func layerNormBwdFMA(dx, gGain, gBias, g, xhat, invStd, gain []float64)

//go:noescape
func softmaxMaxFMA(dst, x, mx []float64, cols int, scale float64)

//go:noescape
func softmaxNormFMA(dst []float64, rows, cols int)

//go:noescape
func softmaxBwdFMA(dst, p, g []float64, rows, cols int, scale float64)

//go:noescape
func addRowFMA(dst, b []float64)

//go:noescape
func colSumFMA(dst, src []float64)

//go:noescape
func addFMA(dst, src []float64)

//go:noescape
func scaleFMA(dst []float64, alpha float64)

// fma8x4f64Store and fma8x16f64Store are the two float64 tiles over a C
// that reads as +0: the accumulators start at +0 and C is only stored, so
// a dst = product's first k block needs no cleared destination.
//
//go:noescape
func fma8x4f64Store(c []float64, ldc int, ap, bp []float64, kc int)

//go:noescape
func fma8x16f64Store(c []float64, ldc int, ap, bp []float64, kc int)

// The SPD inverse's base-block kernels (cholesky_amd64.s), bit-identical to
// choleskyInto and triInvInto on a block of n <= fmaNB rows held in
// fmaNB x fmaNB buffers (cholesky.go, cholInverseFactorBase).

//go:noescape
func cholBaseFMA(t []float64, n int) bool

//go:noescape
func triInvBaseFMA(r, t []float64, n int)

// negFMA flips the sign of every element of x (len(x) a multiple of 4).
//
//go:noescape
func negFMA(x []float64)
