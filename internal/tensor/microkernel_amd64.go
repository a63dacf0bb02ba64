//go:build amd64 && !purego

package tensor

// AVX2+FMA micro-kernels (microkernel_amd64.s). Same tile contract as the
// Go kernels in microkernel.go, but each element's per-step update is a
// single fused multiply-add (one rounding instead of two), so KernelFMA
// results differ from KernelScalar/KernelTiled by at most the fused-
// rounding delta. The reduction order stays ascending k per element, so
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
