package tensor

import (
	"fmt"
	"math"
)

// The matmul entry points run the packed-panel GEMM driver in gemm.go, in
// the active kernel variant (see dispatch.go). Output row panels are split
// across the shared worker pool (parallel.go) with a serial fallback below
// serialWorkLimit, and every output element is reduced in the same
// ascending contraction order regardless of chunking, so results are
// bit-for-bit identical across parallelism settings per variant. The
// *Into variants write into caller-provided buffers and allocate nothing
// in steady state; dst must never alias a or b (a and b may alias each
// other, as in Gram products). The non-Into variants return matrices from
// the workspace pool — callers may Put them when done.

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
	gemmPacked(viewOf(dst), viewOf(a), viewOf(b), 0, ActiveKernel())
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
	gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmBT, ActiveKernel())
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
	kern := ActiveKernel()
	if a == b {
		// Gram product (the K-FAC factor U^T U): the result is
		// symmetric, so only the tiles touching the lower triangle are
		// computed and the rest is mirrored — bit-identical to the full
		// product (element (j,i) multiplies the same pairs in the same
		// ascending-k order as (i,j)) at half the flops.
		gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT|gemmLower, kern)
		mirrorLower(dst)
		return
	}
	gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT, kern)
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
	gemmPacked(viewOf(dst), viewOf(a), viewOf(b), gemmAT|gemmAcc, ActiveKernel())
}

func checkTMatMul(dst, a, b *Matrix, op string) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: %s dimension mismatch: (%dx%d)^T * %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Cols, b.Cols))
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
			s += float64(v * x[j])
		}
		out[i] = s
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
		s += float64(v * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}
