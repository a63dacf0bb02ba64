package tensor

import "fmt"

// Packed holds one copy of a matrix as one operand of the packed driver's
// products, laid out as the driver reads it — the left operand's mr-row
// panels or the right operand's nr-column panels, each over the whole
// contraction — so a matrix that multiplies many times between changes is
// packed once instead of in every product. K-FAC's cached inverses are the
// case: they precondition every step and change once per refresh, and a
// Packed is the only place they are kept.
//
// The copy is exactly one float64 matrix in the layout of the active
// configuration: float64 panels, or row-major in float32 mode, whose
// products read float32 panels packed beside it — the only addition. The
// panels are exactly what gemmRange would pack, and a product reads them
// where it would have read its own, so MatMulPackedAInto and
// MatMulPackedBInto equal MatMulInto bit for bit. The layout belongs to
// the kernel variant, the fma tile width and the float32 mode it was
// packed under; a product under any other configuration first repacks from
// p's own float64 copy (through a pooled scratch), so stale panels are
// never read. PackLeft and PackRight copy a matrix in without
// retaining it, Unpack copies it back out exactly; p holds nothing else.
// The buffers are plain allocations retained across packs. The zero value
// holds nothing.
type Packed struct {
	rows, cols int
	held       bool
	right      bool // the right operand's panels, else the left's
	kern       Kernel
	wide       bool // fmaWide at packing
	f32        bool
	width      int       // mr (left) or nr (right) of the panels; 0 when none are packed
	d64        []float64 // the float64 copy: panels unless rowMajor
	d32        []float32 // float32 mode's panels
}

// PackLeft makes p hold a copy of m as the left operand of
// MatMulPackedAInto, laid out for the active configuration. p keeps no
// reference to m.
func (p *Packed) PackLeft(m *Matrix) { p.pack(m, false) }

// PackRight makes p hold a copy of m as the right operand of
// MatMulPackedBInto, laid out for the active configuration. p keeps no
// reference to m.
func (p *Packed) PackRight(m *Matrix) { p.pack(m, true) }

// Held reports whether p holds a matrix.
func (p *Packed) Held() bool { return p.held }

// Dims returns the shape of the matrix p holds.
func (p *Packed) Dims() (rows, cols int) { return p.rows, p.cols }

// Reset drops the matrix p holds and its buffers.
func (p *Packed) Reset() { *p = Packed{} }

// Unpack copies the matrix p holds into dst, bit for bit. dst must have its
// shape.
func (p *Packed) Unpack(dst *Matrix) {
	if !p.held || dst.Rows != p.rows || dst.Cols != p.cols {
		panic(fmt.Sprintf("tensor: Unpack into %dx%d from a Packed holding %dx%d (held %v)", dst.Rows, dst.Cols, p.rows, p.cols, p.held))
	}
	if p.rowMajor() {
		copy(dst.Data, p.d64[:p.rows*p.cols])
		return
	}
	unpackPanels(dst, p.d64, p.right, p.width)
}

func (p *Packed) pack(m *Matrix, right bool) {
	p.rows, p.cols, p.right, p.held = m.Rows, m.Cols, right, true
	p.kern, p.wide, p.f32, p.width = ActiveKernel(), fmaWide.Load(), F32(), 0
	var g gemmCtx
	if p.configure(&g) {
		p.width = g.mr
		if right {
			p.width = g.nr
		}
	}
	if p.rowMajor() {
		n := m.Rows * m.Cols
		if cap(p.d64) < n {
			p.d64 = make([]float64, n)
		}
		p.d64 = p.d64[:n]
		copy(p.d64, m.Data)
	} else {
		p.d64 = packPanels(p.d64, m, right, p.width, g.vec)
	}
	if p.f32 && p.width > 0 {
		p.d32 = packPanels(p.d32, m, right, p.width, g.vec)
	} else {
		p.d32 = nil
	}
}

// rowMajor reports whether p's float64 copy is the row-major matrix rather
// than float64 panels.
func (p *Packed) rowMajor() bool { return p.width == 0 || p.f32 }

// configure points g at a product with p's matrix as the operand p holds
// (the other operand a placeholder of matching inner dimension, one row or
// column wide when p is the left operand, since a left panel's height does
// not depend on n) and reports whether there is a product to pack for: an
// empty matrix packs none, and its products store dst = 0 (or nothing).
func (p *Packed) configure(g *gemmCtx) bool {
	if p.rows == 0 || p.cols == 0 {
		return false
	}
	kern := ActiveKernel()
	if p.right {
		return g.configure(View{rows: 1, cols: p.cols}, View{rows: 1, cols: p.rows}, p.view(), 0, kern)
	}
	return g.configure(View{rows: p.rows, cols: 1}, p.view(), View{rows: p.cols, cols: 1}, 0, kern)
}

// view is p's operand as the driver's dimensions see it; products never
// read its data, only p's panels.
func (p *Packed) view() View { return View{rows: p.rows, cols: p.cols, ld: p.cols} }

// packPanels packs m into buf (grown when short) as the right operand's
// width-column panels or the left operand's width-row panels, each over
// the whole contraction, and returns the packed slice.
func packPanels[T real](buf []T, m *Matrix, right bool, width int, vec bool) []T {
	lanes, k := m.Rows, m.Cols
	if right {
		lanes, k = m.Cols, m.Rows
	}
	need := (lanes + width - 1) / width * width * k
	if cap(buf) < need {
		buf = make([]T, need)
	}
	buf = buf[:need]
	if right {
		packB(buf, viewOf(m), false, lanes, k, width, vec)
	} else {
		packA(buf, viewOf(m), false, 0, lanes, 0, k, width, vec)
	}
	return buf
}

// unpackPanels is packPanels' inverse for float64 panels: it copies the
// panels in buf back into dst's row-major storage, dropping the padding.
func unpackPanels(dst *Matrix, buf []float64, right bool, width int) {
	lanes, k := dst.Rows, dst.Cols
	if right {
		lanes, k = dst.Cols, dst.Rows
	}
	for l0 := 0; l0 < lanes; l0 += width {
		panel, n := buf[l0*k:], min(width, lanes-l0)
		if right {
			// Step t of the panel is row t's columns [l0, l0+n).
			for t := 0; t < k; t++ {
				copy(dst.Data[t*dst.Cols+l0:][:n], panel[t*width:][:n])
			}
			continue
		}
		// Lane l of the panel is row l0+l, its steps the row's columns.
		for l := 0; l < n; l++ {
			row := dst.Data[(l0+l)*dst.Cols:][:k]
			for t := range row {
				row[t] = panel[t*width+l]
			}
		}
	}
}

// current reports whether p was laid out under the active configuration.
// The panel width follows from it and p's shape (a left panel's height does
// not depend on the product's n), so a current p fits every product.
func (p *Packed) current() bool {
	return p.kern == ActiveKernel() && p.wide == fmaWide.Load() && p.f32 == F32()
}

// relayout repacks p's matrix for the active configuration from its own
// float64 copy.
func (p *Packed) relayout() {
	tmp := Get(p.rows, p.cols)
	p.Unpack(tmp)
	p.pack(tmp, p.right)
	Put(tmp)
}

// MatMulPackedAInto computes dst = a*b like MatMulInto on the matrix a
// holds, bit for bit, reading a's panels instead of packing a. a must hold
// its matrix as the left operand (PackLeft). dst must not alias b.
func MatMulPackedAInto(dst *Matrix, a *Packed, b *Matrix) {
	if !a.held || a.right {
		panic("tensor: MatMulPackedAInto needs a Packed left operand")
	}
	if a.cols != b.Rows || dst.Rows != a.rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedAInto dst %dx%d = %dx%d * %dx%d", dst.Rows, dst.Cols, a.rows, a.cols, b.Rows, b.Cols))
	}
	mulPacked(dst, a, a.view(), viewOf(b))
}

// MatMulPackedBInto computes dst = a*b like MatMulInto on the matrix b
// holds, bit for bit, reading b's panels instead of packing b. b must hold
// its matrix as the right operand (PackRight). dst must not alias a.
func MatMulPackedBInto(dst, a *Matrix, b *Packed) {
	if !b.held || !b.right {
		panic("tensor: MatMulPackedBInto needs a Packed right operand")
	}
	if a.Cols != b.rows || dst.Rows != a.Rows || dst.Cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulPackedBInto dst %dx%d = %dx%d * %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols, b.rows, b.cols))
	}
	mulPacked(dst, b, viewOf(a), b.view())
}

// mulPacked runs dst = a*b with p's panels for the operand p holds,
// repacking them first when they are not current. A product with an empty
// contraction zeroes dst (g.configure).
func mulPacked(dst *Matrix, p *Packed, a, b View) {
	if !p.current() {
		p.relayout()
	}
	g := gemmCtxPool.Get().(*gemmCtx)
	if g.configure(viewOf(dst), a, b, 0, ActiveKernel()) {
		switch {
		case p.right && g.f32:
			g.bpd32 = p.d32
		case p.right:
			g.bpd = p.d64
		case g.f32:
			g.apre32 = p.d32
			g.packOwnB(b, false)
		default:
			g.apre = p.d64
			g.packOwnB(b, false)
		}
		parRunGemm(g, g.nPanA(), g.m*g.n*g.k)
	}
	g.release()
}
