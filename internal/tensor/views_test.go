package tensor

import (
	"fmt"
	"testing"
)

// Tests of the strided-window entry point (Matrix.View + MulViews): every
// product is checked against a scalar ascending-k reference computed on
// copies of the windows, and the matrices around the Dst windows against a
// sentinel, so a write outside a window fails the test.

// viewSpec places one operand window: a rows x cols window at (i, j) of a
// matrix padded by (padR, padC) more rows and columns, so ld != cols
// whenever j + padC > 0.
type viewSpec struct{ i, j, padR, padC int }

func (s viewSpec) alloc(rng *RNG, rows, cols int) (*Matrix, View) {
	m := RandN(rng, s.i+rows+s.padR, s.j+cols+s.padC, 1)
	return m, m.View(s.i, s.j, rows, cols)
}

// dense copies a window into a matrix of its own, transposed when t.
func (v View) dense(t bool) *Matrix {
	out := Zeros(v.rows, v.cols)
	for i := 0; i < v.rows && v.cols > 0; i++ {
		copy(out.Data[i*v.cols:(i+1)*v.cols], v.data[i*v.ld:])
	}
	if t {
		return out.T()
	}
	return out
}

// viewProduct is one generated product with what checking it needs.
type viewProduct struct {
	p      Product
	dstMat *Matrix // the matrix Dst is a window of
	before *Matrix // its contents before the call
	dst    viewSpec
}

func genProduct(rng *RNG, m, n, k int, ta, tb bool, dst, a, b viewSpec) viewProduct {
	ar, ac := m, k
	if ta {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb {
		br, bc = n, k
	}
	_, av := a.alloc(rng, ar, ac)
	_, bv := b.alloc(rng, br, bc)
	dm, dv := dst.alloc(rng, m, n)
	return viewProduct{Product{Dst: dv, A: av, B: bv, TransA: ta, TransB: tb}, dm, dm.Clone(), dst}
}

// check asserts the product's Dst window against want(op(A), op(B)) and
// everything around the window against its contents before the call.
func (vp *viewProduct) check(t *testing.T, name string, want func(a, b *Matrix) *Matrix, exact bool, tol float64) {
	t.Helper()
	ref := want(vp.p.A.dense(vp.p.TransA), vp.p.B.dense(vp.p.TransB))
	expect := vp.before.Clone()
	for i := 0; i < ref.Rows; i++ {
		copy(expect.Row(vp.dst.i + i)[vp.dst.j:], ref.Row(i))
	}
	if exact && !vp.dstMat.Equal(expect) {
		t.Fatalf("%s [%s]: differs from the scalar reference (max %g)", name, ActiveKernel(), vp.dstMat.Sub(expect).MaxAbs())
	}
	if !vp.dstMat.AllClose(expect, tol) {
		t.Fatalf("%s [%s]: outside tolerance %g (max %g)", name, ActiveKernel(), tol, vp.dstMat.Sub(expect).MaxAbs())
	}
	// Outside the window even the tolerant variants must not have written.
	got := vp.dstMat.Clone()
	for i := 0; i < ref.Rows; i++ {
		copy(got.Row(vp.dst.i + i)[vp.dst.j:vp.dst.j+ref.Cols], vp.before.Row(vp.dst.i + i)[vp.dst.j:])
	}
	if !got.Equal(vp.before) {
		t.Fatalf("%s [%s]: wrote outside the Dst window", name, ActiveKernel())
	}
}

var viewEdgeCases = []struct {
	name      string
	m, n, k   int
	ta, tb    bool
	dst, a, b viewSpec
}{
	{"whole matrices", 9, 5, 7, false, false, viewSpec{}, viewSpec{}, viewSpec{}},
	{"windows at the last row and column", 9, 5, 7, false, true, viewSpec{i: 3, j: 11}, viewSpec{i: 2, j: 4}, viewSpec{i: 6, j: 1}},
	{"interior windows, ld != cols", 8, 4, 16, true, false, viewSpec{2, 3, 1, 5}, viewSpec{1, 1, 2, 2}, viewSpec{0, 7, 3, 0}},
	{"k = 1", 13, 6, 1, false, false, viewSpec{1, 2, 0, 3}, viewSpec{0, 5, 0, 0}, viewSpec{4, 0, 0, 2}},
	{"k = 1, both transposed", 6, 13, 1, true, true, viewSpec{0, 0, 2, 0}, viewSpec{3, 3, 0, 0}, viewSpec{0, 1, 1, 1}},
	{"one row, one column", 1, 1, 33, false, true, viewSpec{5, 5, 0, 0}, viewSpec{0, 2, 0, 0}, viewSpec{1, 0, 0, 4}},
	{"attention head window", 64, 64, 16, false, true, viewSpec{}, viewSpec{64, 32, 0, 16}, viewSpec{64, 32, 0, 16}},
	{"attention context window", 64, 16, 64, false, false, viewSpec{64, 48, 0, 0}, viewSpec{}, viewSpec{64, 48, 0, 0}},
	{"deeper than one KC block", 5, 3, 2*gemmKC + 9, true, false, viewSpec{1, 1, 1, 1}, viewSpec{0, 2, 0, 1}, viewSpec{0, 0, 0, 3}},
	{"empty k zeroes Dst", 4, 6, 0, false, false, viewSpec{1, 1, 1, 1}, viewSpec{}, viewSpec{}},
	{"empty Dst rows", 0, 6, 3, false, false, viewSpec{2, 0, 0, 0}, viewSpec{1, 0, 0, 0}, viewSpec{}},
	{"empty Dst columns at the last column", 4, 0, 3, false, true, viewSpec{0, 7, 0, 0}, viewSpec{}, viewSpec{2, 2, 0, 0}},
}

// Every edge shape, alone (the single-product path) and as one batch, under
// every kernel and parallelism setting: scalar and tiled bit-equal to the
// scalar reference, fma within fmaTol.
func TestMulViewsEdges(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withParallelism(t, func(t *testing.T) {
			var batch []viewProduct
			for i, c := range viewEdgeCases {
				rng := NewRNG(uint64(i + 1))
				one := genProduct(rng, c.m, c.n, c.k, c.ta, c.tb, c.dst, c.a, c.b)
				MulViews([]Product{one.p})
				one.check(t, c.name, refMatMul, exact, fmaTol)
				batch = append(batch, genProduct(rng, c.m, c.n, c.k, c.ta, c.tb, c.dst, c.a, c.b))
			}
			ps := make([]Product, len(batch))
			for i := range batch {
				ps[i] = batch[i].p
			}
			MulViews(ps)
			for i := range batch {
				batch[i].check(t, "batched "+viewEdgeCases[i].name, refMatMul, exact, fmaTol)
			}
			MulViews(nil)
		})
	})
}

// attentionBatch builds the B·heads score products of one attention
// forward: windows of shared (B·S) x d matrices, enough work to fan out.
func attentionBatch(rng *RNG, b, s, heads, dk int) (ps []Product, dsts []*Matrix) {
	q, k := RandN(rng, b*s, heads*dk, 1), RandN(rng, b*s, heads*dk, 1)
	for i := 0; i < b*heads; i++ {
		dst := Full(s, s, 42)
		dsts = append(dsts, dst)
		ps = append(ps, Product{
			Dst: dst.View(0, 0, s, s), TransB: true,
			A: q.View(i/heads*s, i%heads*dk, s, dk),
			B: k.View(i/heads*s, i%heads*dk, s, dk),
		})
	}
	return ps, dsts
}

// A batch large enough to fan out must be bit-identical across parallelism
// settings per variant (and across kernels where exact), must actually
// reach the pool, and must leave no pooled buffer checked out.
func TestMulViewsBatchParallelismIdentity(t *testing.T) {
	SetPoolAudit(true)
	defer SetPoolAudit(false)
	var scalarRef []*Matrix
	withKernels(t, func(t *testing.T, exact bool) {
		var ref []*Matrix
		withParallelism(t, func(t *testing.T) {
			ps, dsts := attentionBatch(NewRNG(3), 3, 64, 4, 16)
			MulViews(ps)
			if ref == nil {
				ref = dsts
			}
			for i, d := range dsts {
				if !d.Equal(ref[i]) {
					t.Fatalf("product %d depends on parallelism (max diff %g)", i, d.Sub(ref[i]).MaxAbs())
				}
			}
		})
		if scalarRef == nil {
			scalarRef = ref
		}
		for i, d := range ref {
			checkMat(t, fmt.Sprintf("product %d", i), d, scalarRef[i], exact)
		}
	})
	SetParallelism(4)
	defer SetParallelism(0)
	ps, _ := attentionBatch(NewRNG(3), 3, 64, 4, 16)
	before := PoolTasksExecuted()
	for i := 0; i < 50 && PoolTasksExecuted() == before; i++ {
		MulViews(ps)
	}
	if PoolTasksExecuted() == before {
		t.Fatal("no product of a 12 x (64x64x16) batch was ever run by a pool worker")
	}
	if live := PoolLive(); live != 0 {
		t.Fatalf("%d pooled buffers still checked out after MulViews", live)
	}
}

// In float32 mode the products narrow like MatMulInto's: scalar and tiled
// are bit-identical to a naive ascending-k float32 reduction of the
// windows, fma within fmaTol32.
func TestMulViewsF32(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withF32(t, func(t *testing.T) {
			for i, c := range viewEdgeCases {
				vp := genProduct(NewRNG(uint64(i+1)), c.m, c.n, c.k, c.ta, c.tb, c.dst, c.a, c.b)
				MulViews([]Product{vp.p, vp.p}[:1+i%2]) // alternate the single and the batch path
				vp.check(t, c.name, refMatMul32, exact, fmaTol32)
			}
		})
	})
}

// Steady state allocates nothing, batch or single, serial or fanned out.
func TestMulViewsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer SetParallelism(0)
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		ps, _ := attentionBatch(NewRNG(5), 2, 64, 4, 16)
		for _, batch := range [][]Product{ps, ps[:1]} {
			MulViews(batch)
			if avg := testing.AllocsPerRun(20, func() { MulViews(batch) }); avg > 0.5 {
				t.Fatalf("workers=%d, %d products: %.1f allocs per call, want 0", workers, len(batch), avg)
			}
		}
	}
}

func TestMulViewsRejectsBadShapes(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	m := Zeros(4, 6)
	for _, w := range [][4]int{{-1, 0, 1, 1}, {0, -1, 1, 1}, {0, 0, 5, 1}, {0, 0, 1, 7}, {4, 0, 1, 1}, {3, 5, 1, 2}, {0, 0, -1, 1}} {
		mustPanic(fmt.Sprint("View", w), func() { m.View(w[0], w[1], w[2], w[3]) })
	}
	a, b, dst := Zeros(3, 4).View(0, 0, 3, 4), Zeros(4, 5).View(0, 0, 4, 5), Zeros(3, 5)
	good := Product{Dst: dst.View(0, 0, 3, 5), A: a, B: b}
	MulViews([]Product{good})
	for name, p := range map[string]Product{
		"inner dimension": {Dst: dst.View(0, 0, 3, 5), A: a, B: b, TransB: true},
		"dst rows":        {Dst: dst.View(0, 0, 2, 5), A: a, B: b},
		"dst cols":        {Dst: dst.View(0, 0, 3, 4), A: a, B: b},
		"transposed a":    {Dst: dst.View(0, 0, 3, 5), A: a, B: b, TransA: true},
	} {
		mustPanic(name, func() { MulViews([]Product{good, p}) })
	}
}

// FuzzMulViews drives the entry point with seeded batches of random
// shapes, window placements and transposes. Whatever the draw, the tiled
// kernel must match the scalar reference bit for bit, the default kernel
// within fmaTol — at both tile widths where the host has AVX-512, the two
// bit-equal to each other — and nothing outside a Dst window may change.
func FuzzMulViews(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(64), uint8(64), uint8(16), uint8(2))
	f.Add(uint64(3), uint8(8), uint8(33), uint8(7), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(2), uint8(9), uint8(0), uint8(5), uint8(3))
	f.Add(uint64(5), uint8(5), uint8(70), uint8(5), uint8(65), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, count, ms, ns, ks, trans uint8) {
		def := ActiveKernel()
		defer SetKernel(def)
		type variant struct {
			kern Kernel
			wide bool
		}
		variants := []variant{{KernelTiled, false}, {def, false}}
		if def == KernelFMA && haveAVX512Kernels {
			variants = append(variants, variant{def, true})
		}
		var narrow []viewProduct // the default kernel's batch at the 256-bit tiles
		for _, v := range variants {
			if err := SetKernel(v.kern); err != nil {
				t.Fatal(err)
			}
			rng := NewRNG(seed)
			batch := make([]viewProduct, 1+int(count)%9)
			ps := make([]Product, len(batch))
			for i := range batch {
				m, n, k := (int(ms)+i)%80, (int(ns)+2*i)%80, (int(ks)+3*i)%80
				spec := func() viewSpec { return viewSpec{rng.Intn(4), rng.Intn(4), rng.Intn(3), rng.Intn(3)} }
				tr := int(trans) + i
				batch[i] = genProduct(rng, m, n, k, tr&1 != 0, tr&2 != 0, spec(), spec(), spec())
				ps[i] = batch[i].p
			}
			atFMAWidth(v.wide, func() { MulViews(ps) })
			for i := range batch {
				batch[i].check(t, fmt.Sprintf("product %d of %d", i, len(batch)), refMatMul, v.kern != KernelFMA, fmaTol)
				if v.wide && !sameBits(batch[i].dstMat, narrow[i].dstMat) {
					t.Fatalf("product %d of %d: 512-bit tiles differ from 256-bit tiles", i, len(batch))
				}
			}
			narrow = batch
		}
	})
}
