package tensor

import "fmt"

// Kron returns the Kronecker product a ⊗ b, a (a.Rows*b.Rows) x
// (a.Cols*b.Cols) matrix. It is used only in tests and small reference
// computations; production K-FAC code always works through the
// (A ⊗ B) vec(X) = vec(B X A^T) identity instead (see KronMatVec), exactly
// as the paper does to avoid materializing P_l x P_l matrices (§2.3.1).
func Kron(a, b *Matrix) *Matrix {
	out := Zeros(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			av := a.Data[ia*a.Cols+ja]
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				dstRow := (ia*b.Rows + ib) * out.Cols
				srcRow := ib * b.Cols
				for jb := 0; jb < b.Cols; jb++ {
					out.Data[dstRow+ja*b.Cols+jb] = av * b.Data[srcRow+jb]
				}
			}
		}
	}
	return out
}

// VecColMajor vectorizes m by stacking its columns (the vec(·) operator of
// the paper). The result has length Rows*Cols.
func VecColMajor(m *Matrix) []float64 {
	out := make([]float64, m.Rows*m.Cols)
	idx := 0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			out[idx] = m.Data[i*m.Cols+j]
			idx++
		}
	}
	return out
}

// KronMatVec computes (A ⊗ B) vec(X) = vec(B X A^T) without materializing
// the Kronecker product. X must be b.Cols x a.Cols; the result is returned
// as a b.Rows x a.Rows matrix Y with vec(Y) = (A ⊗ B) vec(X).
//
// With A := A_l^{-1} and B := B_l^{-1} (both symmetric) and X := G_l this is
// exactly the K-FAC preconditioning step B^{-1} G A^{-1} of §2.3.1.
func KronMatVec(a, b, x *Matrix) *Matrix {
	if x.Rows != b.Cols || x.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: KronMatVec shape mismatch: X is %dx%d, want %dx%d", x.Rows, x.Cols, b.Cols, a.Cols))
	}
	bx := MatMul(b, x)    // b.Rows x a.Cols
	return MatMulT(bx, a) // (B X) A^T -> b.Rows x a.Rows
}
