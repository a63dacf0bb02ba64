package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// Float32 storage for the compute-mode pipeline: Matrix32 is the narrow
// counterpart of Matrix, with its own size-class workspace pool (Get32/
// Put32/Reuse32, same ownership contract as pool.go), and Snap is a small
// value-type union over the two precisions used for engine K-FAC snapshots
// — in float32 mode, activation and gradient captures narrow at snapshot
// time, halving resident snapshot memory and the Gram products' input
// traffic.

// Matrix32 is a dense row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zeroed rows x cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NarrowFrom overwrites m with src rounded to float32. Shapes must match.
func (m *Matrix32) NarrowFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: NarrowFrom shape %dx%d, want %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	narrow(m.Data, src.Data)
}

// WidenInto overwrites dst with m converted to float64. Shapes must match.
func (m *Matrix32) WidenInto(dst *Matrix) {
	if m.Rows != dst.Rows || m.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: WidenInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	widen(dst.Data, m.Data)
}

func narrow(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func widen(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

var mat32Pools [maxPoolClass + 1]sync.Pool

// Get32 returns a rows x cols float32 matrix from the workspace pool, with
// unspecified contents — the float32 analogue of Get. Return with Put32.
func Get32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if n == 0 {
		return &Matrix32{Rows: rows, Cols: cols, Data: []float32{}}
	}
	c := sizeClass(n)
	if c > maxPoolClass {
		return NewMatrix32(rows, cols)
	}
	if v := mat32Pools[c].Get(); v != nil {
		m := v.(*Matrix32)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		return m
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, n, 1<<c)}
}

// Put32 returns a float32 matrix to the workspace pool (same contract as
// Put); nil is a no-op.
func Put32(m *Matrix32) {
	if m == nil {
		return
	}
	n := cap(m.Data)
	if n == 0 {
		return
	}
	c := bits.Len(uint(n)) - 1
	if c > maxPoolClass {
		return
	}
	m.Data = m.Data[:0:n]
	mat32Pools[c].Put(m)
}

// Reuse32 returns buf when it already has the requested shape and a fresh
// zeroed Matrix32 otherwise; the result is caller-owned, never pooled.
func Reuse32(buf *Matrix32, rows, cols int) *Matrix32 {
	if buf != nil && buf.Rows == rows && buf.Cols == cols {
		return buf
	}
	return NewMatrix32(rows, cols)
}

// Snap is a precision-tagged snapshot of a matrix: exactly one of the two
// fields is set. The engine stores its per-micro-batch K-FAC activation and
// gradient snapshots as Snaps so float32 mode halves their footprint
// without forking the executor. The zero Snap is invalid (Valid reports
// false) and Release on it is a no-op.
type Snap struct {
	m64 *Matrix
	m32 *Matrix32
}

// SnapOf wraps an existing float64 matrix without copying. The Snap borrows
// the matrix; Release must not be called on borrowed Snaps' owners' behalf
// unless the caller owns the backing data.
func SnapOf(m *Matrix) Snap { return Snap{m64: m} }

// SnapOf32 wraps an existing float32 matrix without copying.
func SnapOf32(m *Matrix32) Snap { return Snap{m32: m} }

// SnapClone captures a pooled snapshot of src at the precision selected by
// the global mode: a narrowed float32 copy when F32() is on, a float64
// clone otherwise. Release returns the backing buffer to its pool.
func SnapClone(src *Matrix) Snap {
	if F32() {
		m := Get32(src.Rows, src.Cols)
		narrow(m.Data, src.Data)
		return Snap{m32: m}
	}
	return Snap{m64: GetClone(src)}
}

// Valid reports whether the Snap holds a matrix.
func (s Snap) Valid() bool { return s.m64 != nil || s.m32 != nil }

// Rows returns the row count (0 for an invalid Snap).
func (s Snap) Rows() int {
	switch {
	case s.m64 != nil:
		return s.m64.Rows
	case s.m32 != nil:
		return s.m32.Rows
	}
	return 0
}

// Cols returns the column count (0 for an invalid Snap).
func (s Snap) Cols() int {
	switch {
	case s.m64 != nil:
		return s.m64.Cols
	case s.m32 != nil:
		return s.m32.Cols
	}
	return 0
}

// Clone returns a pooled same-precision copy of the Snap.
func (s Snap) Clone() Snap {
	switch {
	case s.m64 != nil:
		return Snap{m64: GetClone(s.m64)}
	case s.m32 != nil:
		m := Get32(s.m32.Rows, s.m32.Cols)
		copy(m.Data, s.m32.Data)
		return Snap{m32: m}
	}
	return Snap{}
}

// Release returns the Snap's backing buffer to the matching pool. Safe on
// the zero Snap. The caller must drop the Snap afterwards.
func (s Snap) Release() {
	switch {
	case s.m64 != nil:
		Put(s.m64)
	case s.m32 != nil:
		Put32(s.m32)
	}
}

// GramInto computes dst = s^T * s (the K-FAC factor partial product) as
// TMatMulInto's symmetric rank-k update: lower tiles only, mirrored. dst
// must have shape Cols x Cols. A float32 Snap widens into a pooled scratch
// first; in float32 mode the product itself then renarrows inside the
// packed driver, and widen-then-narrow is exact, so the result is
// bit-identical to a direct float32 Gram.
func (s Snap) GramInto(dst *Matrix) {
	switch {
	case s.m64 != nil:
		TMatMulInto(dst, s.m64, s.m64)
	case s.m32 != nil:
		w := Get(s.m32.Rows, s.m32.Cols)
		widen(w.Data, s.m32.Data)
		TMatMulInto(dst, w, w)
		Put(w)
	default:
		panic("tensor: GramInto on invalid Snap")
	}
}
