//go:build !amd64 || purego

package tensor

// Stubs for the assembly kernels on builds without them. KernelFMA is
// never selectable when haveFMAKernels is false, so these are unreachable;
// they exist only to keep the dispatch in gemm.go and vecmath.go compiling.

func fma8x4f64(c []float64, ldc int, ap, bp []float64, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func fma8x8f32(c []float32, ldc int, ap, bp []float32, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func fma8x16f64(c []float64, ldc int, ap, bp []float64, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func fma8x32f32(c []float32, ldc int, ap, bp []float32, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func expShiftFMA(dst, src []float64, shift float64) {
	panic("tensor: FMA exp kernel unavailable in this build")
}

func erfFMA(dst, src []float64) {
	panic("tensor: FMA erf kernel unavailable in this build")
}

func geluForwardFMA(y, cdf, x []float64) {
	panic("tensor: FMA GELU kernel unavailable in this build")
}

func geluBackwardFMA(dx, dy, x, cdf []float64) {
	panic("tensor: FMA GELU kernel unavailable in this build")
}
