// Package tensor provides the dense linear-algebra substrate used by the
// PipeFisher reproduction: row-major float64 matrices, matrix products,
// Cholesky factorization and inversion, Kronecker-product identities, and a
// deterministic random number source.
//
// Everything is implemented from scratch on the standard library. The
// matrix-product kernels are cache-blocked and goroutine-parallel behind a
// shared worker pool (SetParallelism sizes the total budget,
// SetOpParallelism caps what one kernel invocation may recruit — the
// pipeline engine uses the latter to give each device goroutine a fair
// share of the cores), with a serial fallback below a work threshold.
// Results are bit-for-bit identical across parallelism settings. A pooled
// matrix workspace (Get/Put/GetClone) backs the zero-alloc hot paths; see
// pool.go for the ownership contract.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New, Zeros, Eye or one of the
// random constructors to build a matrix with a shape.
type Matrix struct {
	Rows int
	Cols int
	// Data holds the entries in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols always holds for matrices
	// built through this package's constructors.
	Data []float64
}

// New builds a Rows x Cols matrix backed by the provided data slice. The
// slice is used directly (not copied). It panics if len(data) != rows*cols.
func New(rows, cols int, data []float64) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Zeros returns a rows x cols matrix of zeros.
func Zeros(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Matrix {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Full returns a rows x cols matrix with every entry set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := Zeros(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	cols := len(rows[0])
	m := Zeros(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j). It panics on out-of-range indices.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j) = v. It panics on out-of-range indices.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i as a slice of length Cols.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := Zeros(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero resets every element of m to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := Zeros(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add returns m + other as a new matrix.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.mustSameShape(other, "Add")
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace sets m += other.
func (m *Matrix) AddInPlace(other *Matrix) {
	m.mustSameShape(other, "AddInPlace")
	addTo(m.Data, other.Data)
}

// AddScaledInPlace sets m += alpha*other (a fused axpy).
func (m *Matrix) AddScaledInPlace(alpha float64, other *Matrix) {
	m.mustSameShape(other, "AddScaledInPlace")
	for i, v := range other.Data {
		m.Data[i] += float64(alpha * v)
	}
}

// Sub returns m - other as a new matrix.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.mustSameShape(other, "Sub")
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns alpha*m as a new matrix.
func (m *Matrix) Scale(alpha float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= alpha
	}
	return out
}

// ScaleInPlace sets m *= alpha.
func (m *Matrix) ScaleInPlace(alpha float64) {
	scaleBy(m.Data, alpha)
}

// AddDiagonalInPlace sets m += d*I. m must be square.
func (m *Matrix) AddDiagonalInPlace(d float64) {
	m.mustSquare("AddDiagonalInPlace")
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += d
	}
}

// Trace returns the sum of diagonal entries. m must be square.
func (m *Matrix) Trace() float64 {
	m.mustSquare("Trace")
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobeniusNorm returns sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_ij |m_ij| (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Equal reports whether m and other have the same shape and identical
// entries.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and other have the same shape and all entries
// within tol of each other (absolute difference).
func (m *Matrix) AllClose(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.Data[i*m.Cols+j]-m.Data[j*m.Cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize returns (m + m^T)/2. m must be square.
func (m *Matrix) Symmetrize() *Matrix {
	m.mustSquare("Symmetrize")
	out := Zeros(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[i*m.Cols+j] = 0.5 * (m.Data[i*m.Cols+j] + m.Data[j*m.Cols+i])
		}
	}
	return out
}

// HasNaN reports whether any entry is NaN or Inf.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Reshape returns a matrix with the same backing data but a new shape.
// rows*cols must equal the current element count.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows*cols != len(m.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %dx%d to %dx%d", m.Rows, m.Cols, rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: m.Data}
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", m.Data[i*m.Cols+j])
		}
		if m.Cols > maxShow {
			b.WriteString(" …")
		}
	}
	if m.Rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteString("]")
	return b.String()
}

func (m *Matrix) mustSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Matrix) mustSquare(op string) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("tensor: %s requires a square matrix, got %dx%d", op, m.Rows, m.Cols))
	}
}
