package tensor

// Portable register-tiled micro-kernels: the innermost compute of the
// packed GEMM driver (gemm.go). Each call updates one mr x nr tile of C:
//
//	C[r][j] += sum_{t<kc} ap[t*mr+r] * bp[t*nr+j]
//
// with C loaded into locals up front and stored once at the end, so the
// kc-loop runs entirely in registers. The accumulation for every element
// is one multiply-rounding followed by one add-rounding per t, in
// ascending t order — exactly the per-element sequence of a naive
// ascending-k triple loop, which the tests hold the tiled variant to bit
// for bit. Every product is written with an explicit conversion, which the
// spec says rounds it before the add: without one the compiler may fuse
// x*y + z into one multiply-add wherever the target has it (arm64 does, at
// every product here). The kernels always accumulate into the existing C
// values; the driver zeroes C first for overwrite semantics (adding to
// +0.0 is exact; the fma variant's float64 tiles have store forms that
// start from +0 instead, gemm.go), and KC-blocking stays bit-transparent
// because each block resumes from the stored C instead of introducing a
// second reduction tree.
//
// The tile is 4x2: 8 accumulators plus 6 loop operands stay within
// amd64's 16 float registers (and comfortably within other GOARCHes'),
// which the Go compiler needs to avoid spilling the accumulators — a 4x4
// tile's 16 accumulators alone exhaust the register file and run ~2x
// slower. The k-loop is unrolled by two (with a single-step tail for odd
// kc) to amortize the loop-carried slice advances; the bounds checks
// vanish against the len() loop conditions. Tile shape and unroll never
// affect results: each output element keeps its own ascending-k
// reduction regardless of how elements group into tiles or iterations.
//
// ap is an mr-row packed A panel (k-major: lane r of step t at t*mr+r),
// bp an nr-column packed B panel (lane j of step t at t*nr+j); both are
// zero-padded along rows/columns by the packers, never along k.

// mk4x2f64 is the 4x2 float64 micro-kernel.
func mk4x2f64(c []float64, ldc int, ap, bp []float64, kc int) {
	c0 := c[0:2:2]
	c1 := c[ldc : ldc+2 : ldc+2]
	c2 := c[2*ldc : 2*ldc+2 : 2*ldc+2]
	c3 := c[3*ldc : 3*ldc+2 : 3*ldc+2]
	c00, c01 := c0[0], c0[1]
	c10, c11 := c1[0], c1[1]
	c20, c21 := c2[0], c2[1]
	c30, c31 := c3[0], c3[1]
	ap = ap[: kc*4 : kc*4]
	bp = bp[: kc*2 : kc*2]
	for len(ap) >= 8 && len(bp) >= 4 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += float64(a0 * b0)
		c01 += float64(a0 * b1)
		c10 += float64(a1 * b0)
		c11 += float64(a1 * b1)
		c20 += float64(a2 * b0)
		c21 += float64(a2 * b1)
		c30 += float64(a3 * b0)
		c31 += float64(a3 * b1)
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += float64(a0 * b0)
		c01 += float64(a0 * b1)
		c10 += float64(a1 * b0)
		c11 += float64(a1 * b1)
		c20 += float64(a2 * b0)
		c21 += float64(a2 * b1)
		c30 += float64(a3 * b0)
		c31 += float64(a3 * b1)
		ap = ap[8:]
		bp = bp[4:]
	}
	if len(ap) >= 4 && len(bp) >= 2 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += float64(a0 * b0)
		c01 += float64(a0 * b1)
		c10 += float64(a1 * b0)
		c11 += float64(a1 * b1)
		c20 += float64(a2 * b0)
		c21 += float64(a2 * b1)
		c30 += float64(a3 * b0)
		c31 += float64(a3 * b1)
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
	c3[0], c3[1] = c30, c31
}

// mk4x2f32 is the 4x2 float32 micro-kernel — the float32-mode compute of
// KernelTiled. Its per-element sequence (multiply-round,
// add-round, ascending t, all in float32) is bit-identical to a naive
// ascending-k float32 reduction.
func mk4x2f32(c []float32, ldc int, ap, bp []float32, kc int) {
	c0 := c[0:2:2]
	c1 := c[ldc : ldc+2 : ldc+2]
	c2 := c[2*ldc : 2*ldc+2 : 2*ldc+2]
	c3 := c[3*ldc : 3*ldc+2 : 3*ldc+2]
	c00, c01 := c0[0], c0[1]
	c10, c11 := c1[0], c1[1]
	c20, c21 := c2[0], c2[1]
	c30, c31 := c3[0], c3[1]
	ap = ap[: kc*4 : kc*4]
	bp = bp[: kc*2 : kc*2]
	for len(ap) >= 8 && len(bp) >= 4 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += float32(a0 * b0)
		c01 += float32(a0 * b1)
		c10 += float32(a1 * b0)
		c11 += float32(a1 * b1)
		c20 += float32(a2 * b0)
		c21 += float32(a2 * b1)
		c30 += float32(a3 * b0)
		c31 += float32(a3 * b1)
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += float32(a0 * b0)
		c01 += float32(a0 * b1)
		c10 += float32(a1 * b0)
		c11 += float32(a1 * b1)
		c20 += float32(a2 * b0)
		c21 += float32(a2 * b1)
		c30 += float32(a3 * b0)
		c31 += float32(a3 * b1)
		ap = ap[8:]
		bp = bp[4:]
	}
	if len(ap) >= 4 && len(bp) >= 2 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += float32(a0 * b0)
		c01 += float32(a0 * b1)
		c10 += float32(a1 * b0)
		c11 += float32(a1 * b1)
		c20 += float32(a2 * b0)
		c21 += float32(a2 * b1)
		c30 += float32(a3 * b0)
		c31 += float32(a3 * b1)
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
	c3[0], c3[1] = c30, c31
}
