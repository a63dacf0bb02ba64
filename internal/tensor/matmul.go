package tensor

import (
	"fmt"
	"math"
)

// The matmul entry points dispatch on the active kernel variant (see
// dispatch.go): KernelTiled and KernelFMA — and every variant in float32
// mode — route through the packed-panel GEMM driver in gemm.go, while
// KernelScalar runs the cache-blocked scalar chunk loops below, kept as
// the parity reference. Either way output rows are split across the
// shared worker pool (parallel.go) with a serial fallback below
// serialWorkLimit, and every output element is reduced in the same
// ascending contraction order regardless of chunking, so results are
// bit-for-bit identical across parallelism settings per variant. The
// *Into variants write into caller-provided buffers and allocate nothing
// in steady state; dst must never alias a or b (a and b may alias each
// other, as in Gram products). The non-Into variants return matrices from
// the workspace pool — callers may Put them when done.

// kBlock is the panel height of the k-blocked MatMul inner loops: a
// kBlock x Cols panel of b stays hot in cache while a chunk of output rows
// sweeps over it.
const kBlock = 128

// MatMul returns a*b in a pooled matrix (the caller may Put it). It
// panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Get(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, overwriting dst. dst must already have
// shape a.Rows x b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Cols == 0 {
		dst.Zero()
		return
	}
	if kern := ActiveKernel(); kern != KernelScalar || F32() {
		gemmPacked(viewOf(dst), viewOf(a), viewOf(b), 0, kern)
		return
	}
	parRun(matMulChunk, dst, a, b, a.Rows, a.Rows*a.Cols*b.Cols)
}

// matMulChunk computes dst rows [i0, i1) of dst = a*b with k-blocked ikj
// loops. The first k iteration stores instead of accumulating, so dst needs
// no pre-zeroing.
func matMulChunk(dst, a, b *Matrix, i0, i1 int) {
	k, p := a.Cols, b.Cols
	for kk0 := 0; kk0 < k; kk0 += kBlock {
		kk1 := kk0 + kBlock
		if kk1 > k {
			kk1 = k
		}
		for i := i0; i < i1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*p : (i+1)*p]
			kk := kk0
			if kk0 == 0 {
				scaleStore(drow, arow[0], b.Data[:p])
				kk = 1
			}
			for ; kk+2 <= kk1; kk += 2 {
				axpy2(drow, arow[kk], b.Data[kk*p:(kk+1)*p], arow[kk+1], b.Data[(kk+1)*p:(kk+2)*p])
			}
			if kk < kk1 {
				axpy(drow, arow[kk], b.Data[kk*p:(kk+1)*p])
			}
		}
	}
}

// MatMulT returns a * b^T without materializing the transpose, in a
// pooled matrix (the caller may Put it).
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT dimension mismatch: %dx%d * (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Get(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a * b^T, overwriting dst. dst must have shape
// a.Rows x b.Rows and must not alias a or b.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTInto dimension mismatch: %dx%d * (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if kern := ActiveKernel(); kern != KernelScalar || F32() {
		gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmBT, kern)
		return
	}
	parRun(matMulTChunk, dst, a, b, a.Rows, a.Rows*a.Cols*b.Rows)
}

// matMulTChunk computes dst rows [i0, i1) of dst = a * b^T as dot products,
// four b rows at a time so each pass over a's row feeds four independent
// accumulators.
func matMulTChunk(dst, a, b *Matrix, i0, i1 int) {
	k, br := a.Cols, b.Rows
	for i := i0; i < i1; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*br : (i+1)*br]
		j := 0
		for ; j+4 <= br; j += 4 {
			b0 := b.Data[j*k : j*k+k]
			b1 := b.Data[(j+1)*k : (j+1)*k+k]
			b2 := b.Data[(j+2)*k : (j+2)*k+k]
			b3 := b.Data[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float64
			for t, av := range arow {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < br; j++ {
			brow := b.Data[j*k : j*k+k]
			var s float64
			for t, av := range arow {
				s += av * brow[t]
			}
			drow[j] = s
		}
	}
}

// TMatMul returns a^T * b without materializing the transpose, in a
// pooled matrix (the caller may Put it).
func TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul dimension mismatch: (%dx%d)^T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Get(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes dst = a^T * b, overwriting dst. dst must have shape
// a.Cols x b.Cols and must not alias a or b (a may alias b, as in the Gram
// products U^T U of the K-FAC curvature kernels).
func TMatMulInto(dst, a, b *Matrix) {
	checkTMatMul(dst, a, b, "TMatMulInto")
	if a.Rows == 0 {
		dst.Zero()
		return
	}
	if kern := ActiveKernel(); kern != KernelScalar || F32() {
		if a == b {
			// Gram product (the K-FAC factor U^T U): the result is
			// symmetric, so only the tiles touching the lower triangle
			// are computed and the rest is mirrored — bit-identical to
			// the full product (element (j,i) multiplies the same pairs
			// in the same ascending-k order as (i,j)) at half the flops.
			gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT|gemmLower, kern)
			mirrorLower(dst)
			return
		}
		gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT, kern)
		return
	}
	parRun(tMatMulZeroChunk, dst, a, b, a.Cols, a.Rows*a.Cols*b.Cols)
}

// MirrorLower copies the square matrix m's lower triangle onto its strict
// upper one, making m exactly symmetric — the one mirror a folded sum of
// Snap.GramInto partials takes. It panics if m is not square.
func (m *Matrix) MirrorLower() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("tensor: MirrorLower on a %dx%d matrix", m.Rows, m.Cols))
	}
	mirrorLower(m)
}

// mirrorLower copies the square matrix m's lower triangle onto its upper
// one, a 32-row block at a time: the A-panel packer transposes the block's
// columns into a small contiguous scratch (under fma its assembly register
// transposes), whose rows then copy onto the upper triangle's — both the
// reads and the writes of m run along rows, where a direct column-wise
// write strides by a full row, which at power-of-two dimensions lands every
// line of a block in one cache set. Packing is an exact copy, so which
// packer ran never shows.
func mirrorLower(m *Matrix) {
	const blk = 32
	var scratch [blk * blk]float64
	n := m.Rows
	vec := ActiveKernel() == KernelFMA
	for ib := 0; ib < n; ib += blk {
		rows := min(blk, n-ib)
		for jb := 0; jb <= ib; jb += blk {
			cols := min(blk, n-jb)
			// Scratch row t is column jb+t of block rows [ib, ib+rows).
			if vec {
				packRowsVec(scratch[:], blk, m.Data, n, ib, rows, jb, cols)
			} else {
				packRows(scratch[:], blk, m.Data, n, ib, rows, jb, cols)
			}
			for t := 0; t < cols; t++ {
				from := 0
				if jb == ib {
					from = t + 1 // the diagonal block's upper triangle only
				}
				if from < rows {
					copy(m.Data[(jb+t)*n+ib+from:(jb+t)*n+ib+rows], scratch[t*blk+from:t*blk+rows])
				}
			}
		}
	}
}

// TMatMulAddInto computes dst += a^T * b — the fused form of the
// gradient-accumulation pattern dst.AddInPlace(TMatMul(a, b)), with no
// temporary. dst must have shape a.Cols x b.Cols and must not alias a or b.
func TMatMulAddInto(dst, a, b *Matrix) {
	checkTMatMul(dst, a, b, "TMatMulAddInto")
	if a.Rows == 0 {
		return
	}
	if kern := ActiveKernel(); kern != KernelScalar || F32() {
		gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT|gemmAcc, kern)
		return
	}
	parRun(tMatMulChunk, dst, a, b, a.Cols, a.Rows*a.Cols*b.Cols)
}

func checkTMatMul(dst, a, b *Matrix, op string) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: %s dimension mismatch: (%dx%d)^T * %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

// tMatMulChunk accumulates dst rows [i0, i1) of dst += a^T * b: for each
// input row r, column i of a scales row r of b into output row i. Summation
// runs in r order for every element, matching the scalar reference exactly.
func tMatMulChunk(dst, a, b *Matrix, i0, i1 int) {
	k, p := a.Cols, b.Cols
	r := 0
	for ; r+2 <= a.Rows; r += 2 {
		a0 := a.Data[r*k : (r+1)*k]
		a1 := a.Data[(r+1)*k : (r+2)*k]
		b0 := b.Data[r*p : (r+1)*p]
		b1 := b.Data[(r+1)*p : (r+2)*p]
		for i := i0; i < i1; i++ {
			axpy2(dst.Data[i*p:(i+1)*p], a0[i], b0, a1[i], b1)
		}
	}
	if r < a.Rows {
		arow := a.Data[r*k : (r+1)*k]
		brow := b.Data[r*p : (r+1)*p]
		for i := i0; i < i1; i++ {
			axpy(dst.Data[i*p:(i+1)*p], arow[i], brow)
		}
	}
}

// tMatMulZeroChunk is tMatMulChunk with the r = 0 pass storing instead of
// accumulating, so dst needs no pre-zeroing.
func tMatMulZeroChunk(dst, a, b *Matrix, i0, i1 int) {
	k, p := a.Cols, b.Cols
	for i := i0; i < i1; i++ {
		scaleStore(dst.Data[i*p:(i+1)*p], a.Data[i], b.Data[:p])
	}
	r := 1
	for ; r+2 <= a.Rows; r += 2 {
		a0 := a.Data[r*k : (r+1)*k]
		a1 := a.Data[(r+1)*k : (r+2)*k]
		b0 := b.Data[r*p : (r+1)*p]
		b1 := b.Data[(r+1)*p : (r+2)*p]
		for i := i0; i < i1; i++ {
			axpy2(dst.Data[i*p:(i+1)*p], a0[i], b0, a1[i], b1)
		}
	}
	if r < a.Rows {
		arow := a.Data[r*k : (r+1)*k]
		brow := b.Data[r*p : (r+1)*p]
		for i := i0; i < i1; i++ {
			axpy(dst.Data[i*p:(i+1)*p], arow[i], brow)
		}
	}
}

// axpy computes dst += a*x element-wise. The reslice lets the compiler
// eliminate both bounds checks in the loop body.
func axpy(dst []float64, a float64, x []float64) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += a * v
	}
}

// axpy2 computes dst += a1*x1 followed by dst += a2*x2 in one pass, with a
// single load/store of each dst element. The two updates stay sequential
// per element (t is rounded before x2's term is added), so the result is
// bit-identical to two separate axpy calls — the property the parity and
// cross-schedule identity tests rely on.
func axpy2(dst []float64, a1 float64, x1 []float64, a2 float64, x2 []float64) {
	dst = dst[:len(x1)]
	x2 = x2[:len(x1)]
	for j, v := range x1 {
		t := dst[j] + a1*v
		dst[j] = t + a2*x2[j]
	}
}

// scaleStore computes dst = a*x element-wise (bounds-check free, as axpy).
func scaleStore(dst []float64, a float64, x []float64) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] = a * v
	}
}

// MatVec returns the matrix-vector product a*x as a new slice.
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch: %dx%d * vec(%d)", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMat returns x^T * a as a new slice (length a.Cols).
func VecMat(x []float64, a *Matrix) []float64 {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("tensor: VecMat dimension mismatch: vec(%d)^T * %dx%d", len(x), a.Rows, a.Cols))
	}
	out := make([]float64, a.Cols)
	for i, xv := range x {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		axpy(out, xv, row)
	}
	return out
}

// Outer returns the outer product x y^T as a len(x) x len(y) matrix.
func Outer(x, y []float64) *Matrix {
	out := Zeros(len(x), len(y))
	for i, xv := range x {
		row := out.Data[i*len(y) : (i+1)*len(y)]
		for j, yv := range y {
			row[j] = xv * yv
		}
	}
	return out
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch: %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}
