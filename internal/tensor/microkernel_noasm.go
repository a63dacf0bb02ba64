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

func packRowsF64(dst []float64, width int, src []float64, ld, lanes, kc int) {
	panic("tensor: vector packer unavailable in this build")
}

func packRowsF32(dst []float32, width int, src []float64, ld, lanes, kc int) {
	panic("tensor: vector packer unavailable in this build")
}

func packColsF64(dst []float64, width int, src []float64, ld, lanes, kc int) {
	panic("tensor: vector packer unavailable in this build")
}

func packColsF32(dst []float32, width int, src []float64, ld, lanes, kc int) {
	panic("tensor: vector packer unavailable in this build")
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

func adamUpdateFMA(u, m, v, g, w []float64, beta1, c1, beta2, c2, bc1, bc2, eps, wd, pre float64) (wSq, uSq float64) {
	panic("tensor: FMA optimizer kernel unavailable in this build")
}

func subScaledFMA(dst, src []float64, scale float64) {
	panic("tensor: FMA optimizer kernel unavailable in this build")
}

func layerNormFwdFMA(y, xhat, invStd, x, gain, bias []float64, eps float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func layerNormBwdFMA(dx, gGain, gBias, g, xhat, invStd, gain []float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func softmaxMaxFMA(dst, x, mx []float64, cols int, scale float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func softmaxNormFMA(dst []float64, rows, cols int) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func softmaxBwdFMA(dst, p, g []float64, rows, cols int, scale float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func addRowFMA(dst, b []float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func colSumFMA(dst, src []float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func addFMA(dst, src []float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func scaleFMA(dst []float64, alpha float64) {
	panic("tensor: FMA row kernel unavailable in this build")
}

func fma8x4f64Store(c []float64, ldc int, ap, bp []float64, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func fma8x16f64Store(c []float64, ldc int, ap, bp []float64, kc int) {
	panic("tensor: FMA micro-kernel unavailable in this build")
}

func cholBaseFMA(t []float64, n int) bool {
	panic("tensor: vector base-block kernel unavailable in this build")
}

func triInvBaseFMA(r, t []float64, n int) {
	panic("tensor: vector base-block kernel unavailable in this build")
}

func negFMA(x []float64) {
	panic("tensor: vector negation unavailable in this build")
}
