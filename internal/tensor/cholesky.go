package tensor

import (
	"errors"
	"fmt"
	"math"
)

// SPD inversion, the K-FAC inversion unit (§2.3.1: torch.linalg.cholesky
// then cholesky_inverse per Kronecker factor). A⁻¹ is assembled as M^T M
// with M = L⁻¹ and A = L L^T, in two regimes:
//
//   - n <= invNB: the scalar loops below (dot-product Cholesky, triangular
//     inverse, M^T M), each element one ascending-k reduction.
//   - n > invNB: a recursive blocked form whose every O(n³) term is a call
//     into the packed GEMM driver (gemm.go) on sub-block views. Splitting
//     A = [A11 A21^T; A21 A22] at a multiple of invNB,
//
//	M11 = chol-inverse(A11)                  (recursion)
//	Y   = M11 A21^T            (= L21^T)     op(a) lower triangular
//	A22 -= Y^T Y               (Schur)       lower tiles only
//	M22 = chol-inverse(A22)                  (recursion)
//	Z   = M11^T Y                            op(a) upper triangular
//	M21 = -M22 Z^T                           op(a) lower triangular
//
//     turns the block in place into M, and A⁻¹ = M^T M is one more
//     lower-tiles-only product, mirrored. The scalar loops survive as the
//     base case on the <= invNB diagonal blocks (Cholesky and triangular
//     inverse only), so ErrNotSPD still comes from a non-positive pivot —
//     now possibly of a trailing block's Schur complement.
//
// The blocked path pins the float64 micro-kernels (inverses stay float64
// under SetF32) and runs KernelScalar on the tiled Go micro-kernel, which
// is bit-identical to the scalar reference; KernelFMA differs by fused
// rounding only. Split points, tile grids and k ranges depend on n alone,
// so results are bit-identical across SetParallelism/SetOpParallelism per
// variant, and the result is exactly symmetric by construction.

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the input is not symmetric positive definite
// (within floating-point tolerance).
var ErrNotSPD = errors.New("tensor: matrix is not symmetric positive definite")

// invNB is the blocked inverse's block size: the recursion splits at
// multiples of it and hands blocks of at most invNB rows to the scalar
// base case. Matrices of dimension <= invNB never enter the blocked path.
const invNB = 64

// Cholesky computes the lower-triangular factor L such that m = L L^T.
// m must be square and symmetric positive definite; otherwise ErrNotSPD is
// returned. Only the lower triangle of m is read, mirroring the convention
// of LAPACK's dpotrf and torch.linalg.cholesky, which the paper invokes for
// every Kronecker factor (§2.3.1).
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("tensor: Cholesky requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	l := Zeros(m.Rows, m.Rows)
	if err := choleskyInto(l, m); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors m into the caller-provided lower-triangular buffer l
// (shape n x n). Only l's lower triangle is written or read, so l may come
// from the workspace pool with unspecified contents; callers that expose l
// beyond the lower triangle must zero it first.
func choleskyInto(l, m *Matrix) error {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			lrow := l.Data[i*n : i*n+j]
			ljrow := l.Data[j*n : j*n+j]
			for k, v := range lrow {
				s += v * ljrow[k]
			}
			if i == j {
				d := m.Data[i*n+i] - s
				if d <= 0 || math.IsNaN(d) {
					return ErrNotSPD
				}
				l.Data[i*n+j] = math.Sqrt(d)
			} else {
				l.Data[i*n+j] = (m.Data[i*n+j] - s) / l.Data[j*n+j]
			}
		}
	}
	return nil
}

// triInvInto writes the inverse of the lower-triangular l into linv's
// lower triangle; neither matrix's upper triangle is touched.
func triInvInto(linv, l *Matrix) {
	n := l.Rows
	for i := 0; i < n; i++ {
		linv.Data[i*n+i] = 1 / l.Data[i*n+i]
		for j := 0; j < i; j++ {
			var s float64
			for k := j; k < i; k++ {
				s += l.Data[i*n+k] * linv.Data[k*n+j]
			}
			linv.Data[i*n+j] = -s / l.Data[i*n+i]
		}
	}
}

// invertScalar overwrites dst with work⁻¹ using the scalar loops alone —
// the whole pipeline for n <= invNB, and the oracle the blocked path is
// tested against. Only work's lower triangle is read; it is destroyed.
func invertScalar(dst, work *Matrix) error {
	n := work.Rows
	l := Get(n, n)
	defer Put(l)
	if err := choleskyInto(l, work); err != nil {
		return err
	}
	linv := work
	triInvInto(linv, l)
	// dst = linv^T linv: fill the upper triangle and mirror. linv is lower
	// triangular, so row k has nonzeros up to column k.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for k := j; k < n; k++ {
				s += linv.Data[k*n+i] * linv.Data[k*n+j]
			}
			dst.Data[i*n+j] = s
			dst.Data[j*n+i] = s
		}
	}
	return nil
}

// invertBlocked is invertScalar's counterpart for n > invNB (see the file
// comment). The full work matrix is destroyed.
func invertBlocked(dst, work *Matrix) error {
	kern := ActiveKernel()
	w := viewOf(work)
	if err := cholInverseFactor(w, kern); err != nil {
		return err
	}
	gemmPacked(viewOf(dst), w, w, gemmAT|gemmAUpper|gemmLower|gemmF64, kern)
	mirrorLower(dst)
	return nil
}

// cholInverseFactor replaces the SPD block w (lower triangle read) by
// M = L⁻¹, w = L L^T, in w's lower triangle. Above the diagonal only the
// diagonal blocks' entries are defined (zero), which is all the
// triangular GEMM variants read.
func cholInverseFactor(w View, kern Kernel) error {
	n := w.rows
	if n <= invNB {
		return cholInverseFactorBase(w)
	}
	n1 := (n + invNB - 1) / invNB / 2 * invNB
	n2 := n - n1
	w11, w21, w22 := w.sub(0, 0, n1, n1), w.sub(n1, 0, n2, n1), w.sub(n1, n1, n2, n2)
	if err := cholInverseFactor(w11, kern); err != nil {
		return err
	}
	y := Get(n1, n2)
	defer Put(y)
	gemmPacked(viewOf(y), w11, w21, gemmBT|gemmALower|gemmF64, kern)
	gemmPacked(w22, viewOf(y), viewOf(y), gemmAT|gemmAcc|gemmNeg|gemmLower|gemmF64, kern)
	if err := cholInverseFactor(w22, kern); err != nil {
		return err
	}
	z := Get(n1, n2)
	defer Put(z)
	gemmPacked(viewOf(z), w11, viewOf(y), gemmAT|gemmAUpper|gemmF64, kern)
	gemmPacked(w21, w22, viewOf(z), gemmBT|gemmALower|gemmNeg|gemmF64, kern)
	return nil
}

// cholInverseFactorBase is cholInverseFactor on one diagonal block of at
// most invNB rows: the scalar Cholesky and triangular inverse, run on a
// contiguous pooled copy (rows of w are a full matrix row apart, which
// aliases in L1), then stored back with the strict upper triangle zeroed.
func cholInverseFactorBase(w View) error {
	n := w.rows
	a, l := Get(n, n), Get(n, n)
	defer Put(a)
	defer Put(l)
	for i := 0; i < n; i++ {
		copy(a.Data[i*n:i*n+i+1], w.data[i*w.ld:])
	}
	if err := choleskyInto(l, a); err != nil {
		return err
	}
	triInvInto(a, l)
	for i := 0; i < n; i++ {
		row := w.data[i*w.ld : i*w.ld+n]
		copy(row, a.Data[i*n:i*n+i+1])
		clear(row[i+1:])
	}
	return nil
}

// SPDInverseInto overwrites dst with the inverse of the symmetric positive
// definite matrix m + damping*I, via Cholesky. If the factorization fails,
// the damping grows exponentially until it succeeds or the attempt budget
// is exhausted. This is the rescue path used when empirical Kronecker
// factors are rank deficient, which happens whenever the micro-batch size
// is smaller than the factor dimension. dst must have m's shape and must
// not alias it; the result is exactly symmetric. All temporaries cycle
// through the workspace pool: steady-state calls allocate nothing.
func SPDInverseInto(dst, m *Matrix, damping float64) error {
	if damping < 0 {
		return fmt.Errorf("tensor: SPDInverse damping must be non-negative, got %g", damping)
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("tensor: SPDInverse requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		return fmt.Errorf("tensor: SPDInverseInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols)
	}
	// The one damped copy: both inversion paths consume it.
	work := Get(m.Rows, m.Rows)
	defer Put(work)
	d := damping
	const attempts = 12
	for try := 0; try < attempts; try++ {
		work.CopyFrom(m)
		if d > 0 {
			work.AddDiagonalInPlace(d)
		}
		var err error
		if m.Rows <= invNB {
			err = invertScalar(dst, work)
		} else {
			err = invertBlocked(dst, work)
		}
		if err == nil {
			return nil
		}
		if d == 0 {
			// Seed the escalation relative to the matrix scale.
			d = 1e-8 * math.Max(1, m.MaxAbs())
		} else {
			d *= 10
		}
	}
	return fmt.Errorf("tensor: SPDInverse failed after %d damping attempts: %w", attempts, ErrNotSPD)
}

// SPDInverse is SPDInverseInto into a freshly allocated, caller-owned
// matrix.
func SPDInverse(m *Matrix, damping float64) (*Matrix, error) {
	inv := Zeros(m.Rows, m.Cols)
	if err := SPDInverseInto(inv, m, damping); err != nil {
		return nil, err
	}
	return inv, nil
}
