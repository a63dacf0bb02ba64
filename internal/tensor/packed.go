package tensor

import "fmt"

// Packed holds a matrix in the packed driver's panel layout as one operand
// of its products — the left operand's mr-row panels or the right
// operand's nr-column panels, each over the whole contraction — so a
// matrix that multiplies many times between changes is packed once instead
// of in every product. K-FAC's cached inverses are the case: they
// precondition every step and change once per refresh.
//
// The panels are exactly what gemmRange would pack from the matrix, and a
// product reads them where it would have read its own, so MatMulPackedAInto
// and MatMulPackedBInto equal MatMulInto bit for bit. Panels belong to the
// kernel variant, the fma tile width, the float32 mode and the tile they
// were packed for; a product under any other configuration repacks from the
// source matrix first, so stale panels are never read. What the source
// holds is the owner's to track: Pack again after every write to it. The
// buffers are plain allocations retained across packs. The zero value
// holds nothing.
type Packed struct {
	src   *Matrix
	right bool // the right operand's panels, else the left's
	kern  Kernel
	wide  bool // fmaWide at packing
	f32   bool
	width int // mr (left) or nr (right) of the panels; 0 when unpacked
	d64   []float64
	d32   []float32
}

// PackLeft makes p hold m as the left operand of MatMulPackedAInto and
// packs its panels for the active configuration.
func (p *Packed) PackLeft(m *Matrix) { p.pack(m, false) }

// PackRight makes p hold m as the right operand of MatMulPackedBInto and
// packs its panels for the active configuration.
func (p *Packed) PackRight(m *Matrix) { p.pack(m, true) }

func (p *Packed) pack(m *Matrix, right bool) {
	p.src, p.right, p.width = m, right, 0
	var g gemmCtx
	if p.configure(&g) {
		p.fill(&g)
	}
}

// configure points g at a product with p's source as the operand p holds
// (the other operand a placeholder of matching inner dimension, one row or
// column wide when p is the left operand, since a left panel's height does
// not depend on n) and reports whether the active configuration packs
// panels at all: KernelScalar multiplies float64 by its scalar loops.
func (p *Packed) configure(g *gemmCtx) bool {
	kern := ActiveKernel()
	if kern == KernelScalar && !F32() {
		return false
	}
	m := p.src
	if p.right {
		return g.configure(View{rows: 1, cols: m.Cols}, View{rows: 1, cols: m.Rows}, viewOf(m), 0, kern)
	}
	return g.configure(View{rows: m.Rows, cols: 1}, viewOf(m), View{rows: m.Cols, cols: 1}, 0, kern)
}

// fill packs the source for g's tiles and records the configuration.
func (p *Packed) fill(g *gemmCtx) {
	p.kern, p.wide, p.f32 = ActiveKernel(), fmaWide.Load(), g.f32
	p.width = g.mr
	if p.right {
		p.width = g.nr
	}
	if g.f32 {
		p.d32 = packPanels(p.d32, p.src, p.right, p.width, g.vec)
	} else {
		p.d64 = packPanels(p.d64, p.src, p.right, p.width, g.vec)
	}
}

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

// current reports whether p's panels were packed for g's tiles under the
// active configuration.
func (p *Packed) current(g *gemmCtx) bool {
	width := g.mr
	if p.right {
		width = g.nr
	}
	return p.width == width && p.kern == ActiveKernel() && p.wide == fmaWide.Load() && p.f32 == g.f32
}

// MatMulPackedAInto computes dst = a*b like MatMulInto on the matrix a
// holds, bit for bit, reading a's panels instead of packing a. a must hold
// its source as the left operand (PackLeft). dst must not alias a's source
// or b.
func MatMulPackedAInto(dst *Matrix, a *Packed, b *Matrix) {
	if a.src == nil || a.right {
		panic("tensor: MatMulPackedAInto needs a Packed left operand")
	}
	src := a.src
	if src.Cols != b.Rows || dst.Rows != src.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedAInto dst %dx%d = %dx%d * %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols, b.Rows, b.Cols))
	}
	mulPacked(dst, a, viewOf(src), viewOf(b), b)
}

// MatMulPackedBInto computes dst = a*b like MatMulInto on the matrix b
// holds, bit for bit, reading b's panels instead of packing b. b must hold
// its source as the right operand (PackRight). dst must not alias a or b's
// source.
func MatMulPackedBInto(dst, a *Matrix, b *Packed) {
	if b.src == nil || !b.right {
		panic("tensor: MatMulPackedBInto needs a Packed right operand")
	}
	src := b.src
	if a.Cols != src.Rows || dst.Rows != a.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedBInto dst %dx%d = %dx%d * %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols, src.Rows, src.Cols))
	}
	mulPacked(dst, b, viewOf(a), viewOf(src), a)
}

// mulPacked runs dst = a*b with p's panels for the operand p holds,
// repacking them first when they are not current. other is the operand p
// does not hold. KernelScalar's float64 product runs MatMulInto's scalar
// loops.
func mulPacked(dst *Matrix, p *Packed, a, b View, other *Matrix) {
	kern := ActiveKernel()
	if kern == KernelScalar && !F32() || a.cols == 0 {
		if p.right {
			MatMulInto(dst, other, p.src)
		} else {
			MatMulInto(dst, p.src, other)
		}
		return
	}
	g := gemmCtxPool.Get().(*gemmCtx)
	if g.configure(viewOf(dst), a, b, 0, kern) {
		if !p.current(g) {
			p.fill(g)
		}
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
