package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file provides the pooled matrix workspace used by the zero-alloc hot
// paths: per-micro-batch temporaries (engine activation hand-offs, K-FAC
// statistics snapshots and partial curvature products, Cholesky work
// buffers) are recycled through size-class buckets instead of being
// freshly allocated every step.
//
// Pooling contract: a matrix obtained from Get is owned by the caller until
// it calls Put; after Put the caller must drop every reference (the backing
// array will be handed to a future Get, possibly on another goroutine).
// Only pass matrices to Put whose backing data you own outright — never a
// view, a model parameter, or a matrix another component may still read.
// Holding a pooled matrix across ops is fine as long as exactly one owner
// eventually Puts it (or lets it go to the GC, which is always safe).

// maxPoolClass bounds pooled sizes to 2^26 floats (512 MiB); anything
// larger is allocated and collected normally.
const maxPoolClass = 26

var matPools [maxPoolClass + 1]sync.Pool

// sizeClass returns the smallest c with 1<<c >= n (n > 0).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a rows x cols matrix from the workspace pool. The contents
// are unspecified — callers must fully overwrite (or Zero) the matrix
// before reading it. Return it with Put when done.
func Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if n == 0 {
		return &Matrix{Rows: rows, Cols: cols, Data: []float64{}}
	}
	c := sizeClass(n)
	if c > maxPoolClass {
		return Zeros(rows, cols)
	}
	if v := matPools[c].Get(); v != nil {
		m := v.(*Matrix)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		auditGet(m)
		return m
	}
	m := &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<c)}
	auditGet(m)
	return m
}

// GetClone returns a pooled copy of src (shape and contents).
func GetClone(src *Matrix) *Matrix {
	m := Get(src.Rows, src.Cols)
	copy(m.Data, src.Data)
	return m
}

// Put returns a matrix (header and backing array) to the workspace pool.
// The caller must not use m (or any view of its data) afterwards — a later
// Get may hand back the very same object. Put accepts any matrix whose
// backing data the caller owns outright, not only those from Get (but
// never a view such as a Reshape sharing another matrix's data); nil is a
// no-op.
func Put(m *Matrix) {
	if m == nil {
		return
	}
	auditPut(m)
	n := cap(m.Data)
	if n == 0 {
		return
	}
	// Bucket by the largest class fully covered by the capacity, so a
	// future Get from that bucket always fits. Pooling the *Matrix itself
	// keeps Put allocation-free (no boxed slice header).
	c := bits.Len(uint(n)) - 1
	if c > maxPoolClass {
		return
	}
	m.Data = m.Data[:0:n]
	matPools[c].Put(m)
}

// Reuse returns buf when it already has the requested shape (the
// steady-state case for retained per-layer buffers) and a fresh zeroed
// matrix otherwise. Unlike Get, the result is caller-owned and never comes
// from the pool, so it is safe to retain indefinitely.
func Reuse(buf *Matrix, rows, cols int) *Matrix {
	if buf != nil && buf.Rows == rows && buf.Cols == cols {
		return buf
	}
	return Zeros(rows, cols)
}

// ReuseRows is Reuse for a buffer whose row count varies between calls —
// BERT's MLM head, which scores only a micro-batch's masked positions: a
// buffer with cols columns and room for rows of them keeps its storage and
// takes the new row count, so a count that shrinks and grows again within
// what was once allocated costs nothing. A buffer that is too short is
// replaced by one with room for twice the rows, so a count that keeps
// setting new highs reallocates a logarithmic number of times; a first
// allocation, or one for new columns, is exact. Rows past the new count are
// not part of the result, and the kept rows' contents are stale, as with
// Reuse.
func ReuseRows(buf *Matrix, rows, cols int) *Matrix {
	switch {
	case buf == nil || buf.Cols != cols:
		return Zeros(rows, cols)
	case cap(buf.Data) < rows*cols:
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols, 2*rows*cols)}
	}
	buf.Rows, buf.Data = rows, buf.Data[:rows*cols]
	return buf
}
