package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Scalar reference implementations: the naive triple loops the packed
// parallel kernels must match bit for bit (each output element is reduced
// in the same serial order, one multiply-rounding and one add-rounding per
// step — each product converted explicitly, so no GOARCH fuses it).

func refMatMul(a, b *Matrix) *Matrix {
	out := Zeros(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for kk := 0; kk < a.Cols; kk++ {
			av := a.Data[i*a.Cols+kk]
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += float64(av * b.Data[kk*b.Cols+j])
			}
		}
	}
	return out
}

func refMatMulT(a, b *Matrix) *Matrix {
	out := Zeros(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for t := 0; t < a.Cols; t++ {
				s += float64(a.Data[i*a.Cols+t] * b.Data[j*a.Cols+t])
			}
			out.Data[i*b.Rows+j] = s
		}
	}
	return out
}

func refTMatMul(a, b *Matrix) *Matrix {
	out := Zeros(a.Cols, b.Cols)
	refTMatMulAdd(out, a, b)
	return out
}

func refTMatMulAdd(dst, a, b *Matrix) {
	for r := 0; r < a.Rows; r++ {
		for i := 0; i < a.Cols; i++ {
			av := a.Data[r*a.Cols+i]
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*b.Cols+j] += float64(av * b.Data[r*b.Cols+j])
			}
		}
	}
}

// parityShapes covers the awkward cases: 1x1, single row/col, tall, wide,
// dimensions that are not multiples of the k-block or the unroll width, and
// shapes around the serial/parallel threshold.
var parityShapes = []struct{ n, k, p int }{
	{1, 1, 1},
	{1, 7, 3},
	{7, 1, 5},
	{2, 3, 1},
	{129, 3, 65},
	{3, 129, 2},
	{65, 63, 67},
	{130, 131, 5},
	{256, 64, 32},
	{64, 200, 64},
}

// withParallelism runs f under each parallelism/per-op-cap configuration,
// restoring the defaults afterwards.
func withParallelism(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer SetParallelism(0)
	defer SetOpParallelism(0)
	for _, cfg := range []struct{ workers, cap int }{
		{1, 0}, {4, 0}, {4, 2}, {8, 3},
	} {
		SetParallelism(cfg.workers)
		SetOpParallelism(cfg.cap)
		t.Run(fmt.Sprintf("workers=%d cap=%d", cfg.workers, cfg.cap), f)
	}
}

func TestBlockedKernelsMatchScalarReference(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withParallelism(t, func(t *testing.T) {
			for _, sh := range parityShapes {
				rng := NewRNG(uint64(7*sh.n + 13*sh.k + sh.p))
				a := RandN(rng, sh.n, sh.k, 1)
				b := RandN(rng, sh.k, sh.p, 1)
				bt := RandN(rng, sh.p, sh.k, 1) // for a * bt^T
				c := RandN(rng, sh.n, sh.p, 1)  // for a^T * c

				checkMat(t, fmt.Sprintf("MatMul %dx%dx%d", sh.n, sh.k, sh.p),
					MatMul(a, b), refMatMul(a, b), exact)
				got := Full(sh.n, sh.p, 42) // stale contents must be overwritten
				MatMulInto(got, a, b)
				checkMat(t, fmt.Sprintf("MatMulInto %dx%dx%d", sh.n, sh.k, sh.p),
					got, refMatMul(a, b), exact)

				checkMat(t, fmt.Sprintf("MatMulT %dx%dx%d", sh.n, sh.k, sh.p),
					MatMulT(a, bt), refMatMulT(a, bt), exact)
				got = Full(sh.n, sh.p, 42)
				MatMulTInto(got, a, bt)
				checkMat(t, fmt.Sprintf("MatMulTInto %dx%dx%d", sh.n, sh.k, sh.p),
					got, refMatMulT(a, bt), exact)

				checkMat(t, fmt.Sprintf("TMatMul %dx%dx%d", sh.n, sh.k, sh.p),
					TMatMul(a, c), refTMatMul(a, c), exact)
				got = Full(sh.k, sh.p, 42)
				TMatMulInto(got, a, c)
				checkMat(t, fmt.Sprintf("TMatMulInto %dx%dx%d", sh.n, sh.k, sh.p),
					got, refTMatMul(a, c), exact)

				// Fused accumulation: dst += a^T c on a non-trivial dst.
				acc := RandN(rng, sh.k, sh.p, 1)
				want := acc.Clone()
				refTMatMulAdd(want, a, c)
				TMatMulAddInto(acc, a, c)
				checkMat(t, fmt.Sprintf("TMatMulAddInto %dx%dx%d", sh.n, sh.k, sh.p),
					acc, want, exact)
			}
		})
	})
}

func TestKernelsZeroInnerDimension(t *testing.T) {
	withParallelism(t, func(t *testing.T) {
		a := Zeros(3, 0)
		b := Zeros(0, 4)
		got := Full(3, 4, 9)
		MatMulInto(got, a, b)
		if !got.Equal(Zeros(3, 4)) {
			t.Fatal("MatMulInto with k=0 must produce zeros")
		}
		c := Zeros(0, 3)
		d := Zeros(0, 5)
		got = Full(3, 5, 9)
		TMatMulInto(got, c, d)
		if !got.Equal(Zeros(3, 5)) {
			t.Fatal("TMatMulInto with no rows must produce zeros")
		}
		acc := Full(3, 5, 2)
		TMatMulAddInto(acc, c, d)
		if !acc.Equal(Full(3, 5, 2)) {
			t.Fatal("TMatMulAddInto with no rows must leave dst untouched")
		}
	})
}

func TestGramProductAliasing(t *testing.T) {
	// The K-FAC curvature kernel computes U^T U with a aliasing b.
	withKernels(t, func(t *testing.T, exact bool) {
		withParallelism(t, func(t *testing.T) {
			rng := NewRNG(5)
			u := RandN(rng, 37, 19, 1)
			got := Get(19, 19)
			defer Put(got)
			TMatMulInto(got, u, u)
			checkMat(t, "TMatMulInto(U, U)", got, refTMatMul(u, u), exact)
		})
	})
}

func TestResultsIdenticalAcrossParallelism(t *testing.T) {
	// Bit-identity across worker counts must hold for every kernel
	// variant, including FMA (the reduction order is fixed per variant).
	withKernels(t, func(t *testing.T, exact bool) {
		defer SetParallelism(0)
		defer SetOpParallelism(0)
		rng := NewRNG(11)
		a := RandN(rng, 150, 90, 1)
		b := RandN(rng, 90, 110, 1)
		SetParallelism(1)
		serial := MatMul(a, b)
		SetParallelism(6)
		SetOpParallelism(3)
		parallel := MatMul(a, b)
		if !serial.Equal(parallel) {
			t.Fatal("parallel MatMul is not bit-identical to serial")
		}
	})
}

func TestConcurrentKernelInvocations(t *testing.T) {
	// Device goroutines issue kernels concurrently against the shared
	// pool; every result must still match the reference.
	defer SetParallelism(0)
	defer SetOpParallelism(0)
	SetParallelism(4)
	SetOpParallelism(2)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := NewRNG(uint64(100 + g))
			a := RandN(rng, 80, 70, 1)
			b := RandN(rng, 70, 60, 1)
			// The active variant is its own reference: concurrent
			// invocations must reproduce it bit for bit.
			want := MatMul(a, b)
			out := Zeros(80, 60)
			for iter := 0; iter < 10; iter++ {
				MatMulInto(out, a, b)
				if !out.Equal(want) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: mismatch", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelismKnobs(t *testing.T) {
	defer SetParallelism(0)
	defer SetOpParallelism(0)
	SetParallelism(5)
	if Parallelism() != 5 {
		t.Fatalf("Parallelism() = %d after SetParallelism(5)", Parallelism())
	}
	SetOpParallelism(2)
	if OpParallelism() != 2 {
		t.Fatalf("OpParallelism() = %d after SetOpParallelism(2)", OpParallelism())
	}
	SetOpParallelism(-1)
	if OpParallelism() != 0 {
		t.Fatalf("OpParallelism() = %d, want 0 (uncapped)", OpParallelism())
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", Parallelism())
	}
}

func TestWorkspacePool(t *testing.T) {
	m := Get(4, 5)
	if m.Rows != 4 || m.Cols != 5 || len(m.Data) != 20 {
		t.Fatalf("Get(4,5) returned %dx%d with %d data", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	Put(m)
	// A second Get of a compatible size must be well-formed regardless of
	// whether it reuses the recycled buffer.
	m2 := Get(3, 6)
	if m2.Rows != 3 || m2.Cols != 6 || len(m2.Data) != 18 {
		t.Fatalf("Get(3,6) returned %dx%d with %d data", m2.Rows, m2.Cols, len(m2.Data))
	}
	Put(m2)

	src := FromRows([][]float64{{1, 2}, {3, 4}})
	c := GetClone(src)
	if !c.Equal(src) {
		t.Fatal("GetClone does not copy contents")
	}
	Put(c)

	e := Get(0, 7)
	if e.Rows != 0 || e.Cols != 7 || len(e.Data) != 0 {
		t.Fatalf("Get(0,7) returned %dx%d with %d data", e.Rows, e.Cols, len(e.Data))
	}
	Put(e)
	Put(nil) // must not panic
}

func TestReuse(t *testing.T) {
	a := Zeros(3, 4)
	if Reuse(a, 3, 4) != a {
		t.Fatal("Reuse must return the buffer when the shape matches")
	}
	b := Reuse(a, 2, 4)
	if b == a || b.Rows != 2 || b.Cols != 4 {
		t.Fatal("Reuse must allocate on shape change")
	}
	if c := Reuse(nil, 1, 1); c == nil || c.Rows != 1 {
		t.Fatal("Reuse(nil) must allocate")
	}
}

func TestReuseRows(t *testing.T) {
	a := Zeros(6, 4)
	if b := ReuseRows(a, 2, 4); b != a || b.Rows != 2 || len(b.Data) != 8 {
		t.Fatal("ReuseRows must keep the buffer when fewer rows fit")
	}
	if b := ReuseRows(a, 6, 4); b != a || b.Rows != 6 || len(b.Data) != 24 {
		t.Fatal("ReuseRows must regrow within the storage it holds")
	}
	if b := ReuseRows(a, 0, 4); b != a || b.Rows != 0 {
		t.Fatal("ReuseRows must keep the buffer at zero rows")
	}
	b := ReuseRows(a, 7, 4)
	if b == a || b.Rows != 7 || len(b.Data) != 28 {
		t.Fatal("ReuseRows must allocate past the storage it holds")
	}
	if c := ReuseRows(b, 14, 4); c != b || c.Rows != 14 {
		t.Fatal("ReuseRows must leave room for twice the rows when it regrows")
	}
	if b := ReuseRows(a, 2, 3); b == a || b.Cols != 3 {
		t.Fatal("ReuseRows must allocate on a column change")
	}
	if c := ReuseRows(nil, 1, 1); c == nil || c.Rows != 1 {
		t.Fatal("ReuseRows(nil) must allocate")
	}
}

// TestSerialWorkLimitBoundary pins serialWorkLimit's boundary on the one
// fan-out path, parRunGemm (the packed driver), under every kernel variant
// and SetParallelism(2): a product of 2^18 − 1 multiply-adds
// (511x513 · 513x1) never reaches a pool worker, one of exactly 2^18
// (512x512 · 512x1) does. A worker takes a chunk only while it is parked,
// so the fanning product is retried, yielding, until a worker wins.
func TestSerialWorkLimitBoundary(t *testing.T) {
	def, cap0 := ActiveKernel(), OpParallelism()
	defer func() {
		SetKernel(def)
		SetOpParallelism(cap0)
		SetParallelism(0)
	}()
	SetParallelism(2)
	SetOpParallelism(0)
	below := [3]*Matrix{Zeros(511, 1), RandN(NewRNG(1), 511, 513, 1), RandN(NewRNG(2), 513, 1, 1)}
	at := [3]*Matrix{Zeros(512, 1), RandN(NewRNG(3), 512, 512, 1), RandN(NewRNG(4), 512, 1, 1)}
	if w := below[1].Rows * below[1].Cols * below[2].Cols; w != serialWorkLimit-1 {
		t.Fatalf("below-limit product has %d multiply-adds", w)
	}
	if w := at[1].Rows * at[1].Cols * at[2].Cols; w != serialWorkLimit {
		t.Fatalf("at-limit product has %d multiply-adds", w)
	}
	for _, k := range AvailableKernels() {
		if err := SetKernel(k); err != nil {
			t.Fatal(err)
		}
		before := PoolTasksExecuted()
		for i := 0; i < 200; i++ {
			MatMulInto(below[0], below[1], below[2])
			runtime.Gosched()
		}
		if n := PoolTasksExecuted() - before; n != 0 {
			t.Fatalf("%v: %d pool tasks for a product of 2^18 - 1 multiply-adds, want 0", k, n)
		}
		before = PoolTasksExecuted()
		for deadline := time.Now().Add(5 * time.Second); PoolTasksExecuted() == before && time.Now().Before(deadline); {
			MatMulInto(at[0], at[1], at[2])
			runtime.Gosched()
		}
		if PoolTasksExecuted() == before {
			t.Fatalf("%v: no pool task ever ran for a product of exactly 2^18 multiply-adds", k)
		}
	}
}
