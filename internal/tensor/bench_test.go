package tensor

import (
	"fmt"
	"testing"
)

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			x := RandN(r, n, n, 1)
			y := RandN(r, n, n, 1)
			out := Zeros(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
			b.SetBytes(int64(8 * n * n))
		})
	}
}

// BenchmarkPack is the panel-packing rung under the GEMM driver at the
// operand shapes of one attention item (S = 64, dk = 16, the fma kernels'
// mr = 8, nr = 4): lanes from source rows (A as stored, B transposed) and
// lanes from source columns (A transposed, B as stored).
func BenchmarkPack(b *testing.B) {
	rng := NewRNG(1)
	head := RandN(rng, 128, 64, 1).View(64, 16, 64, 16) // one head's S x dk window
	probs := RandN(rng, 64, 64, 1).View(0, 0, 64, 64)
	buf := make([]float64, 64*64)
	for _, c := range []struct {
		name string
		pack func()
		n    int
	}{
		{"A_rows_64x16", func() { packA(buf, head, false, 0, 64, 0, 16, 8) }, 64 * 16},
		{"A_rows_64x64", func() { packA(buf, probs, false, 0, 64, 0, 64, 8) }, 64 * 64},
		{"A_cols_64x64", func() { packA(buf, probs, true, 0, 64, 0, 64, 8) }, 64 * 64},
		{"B_rows_64x16", func() { packB(buf, head, true, 64, 16, 4) }, 64 * 16},
		{"B_cols_64x16", func() { packB(buf, head, false, 16, 64, 4) }, 64 * 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.pack()
			}
			b.SetBytes(int64(8 * c.n))
		})
	}
}

// BenchmarkMatMulWorkers measures the same 256x256 product under explicit
// worker budgets — the parallel-speedup trajectory the CI bench job tracks.
// Besides MB/s it reports poolchunks/op, the number of packed-panel chunks
// executed by pool workers per op: the effective per-op fan-out. On hosts
// with few cores the wall-clock rows stay flat, but a kernel that stops
// splitting (or a pool that stops accepting) still shows up as
// poolchunks/op collapsing to zero.
func BenchmarkMatMulWorkers(b *testing.B) {
	defer SetParallelism(0)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			SetParallelism(w)
			r := NewRNG(1)
			x := RandN(r, 256, 256, 1)
			y := RandN(r, 256, 256, 1)
			out := Zeros(256, 256)
			b.ResetTimer()
			start := PoolTasksExecuted()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
			b.SetBytes(int64(8 * 256 * 256))
			b.ReportMetric(float64(PoolTasksExecuted()-start)/float64(b.N), "poolchunks/op")
		})
	}
}

// BenchmarkMatMulKernels pins each dispatch variant on the same product so
// the scalar -> tiled -> fma trajectory is tracked per variant.
func BenchmarkMatMulKernels(b *testing.B) {
	def := ActiveKernel()
	defer SetKernel(def)
	for _, k := range AvailableKernels() {
		b.Run(k.String(), func(b *testing.B) {
			if err := SetKernel(k); err != nil {
				b.Fatal(err)
			}
			r := NewRNG(1)
			x := RandN(r, 256, 256, 1)
			y := RandN(r, 256, 256, 1)
			out := Zeros(256, 256)
			// One untimed call so the kernel's lazily grown packing
			// buffers exist before measurement: the steady state is
			// allocation-free and the benchmark must report it that way.
			MatMulInto(out, x, y)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
			b.SetBytes(int64(8 * 256 * 256))
		})
	}
}

// BenchmarkMatMulF32 is BenchmarkMatMul under float32 compute mode (same
// float64 API; packed panels and accumulation narrow to float32).
func BenchmarkMatMulF32(b *testing.B) {
	SetF32(true)
	defer SetF32(false)
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			x := RandN(r, n, n, 1)
			y := RandN(r, n, n, 1)
			out := Zeros(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
			b.SetBytes(int64(8 * n * n))
		})
	}
}

func BenchmarkMatMulT(b *testing.B) {
	r := NewRNG(2)
	x := RandN(r, 128, 256, 1)
	y := RandN(r, 128, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(MatMulT(x, y)) // pooled result: steady state allocates nothing
	}
}

func BenchmarkMatMulTInto(b *testing.B) {
	r := NewRNG(2)
	x := RandN(r, 128, 256, 1)
	y := RandN(r, 128, 256, 1)
	out := Zeros(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTInto(out, x, y)
	}
}

func BenchmarkTMatMul(b *testing.B) {
	// The curvature kernel shape: U^T U with tall U (tokens x features).
	r := NewRNG(3)
	u := RandN(r, 512, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(TMatMul(u, u)) // pooled result: steady state allocates nothing
	}
}

func BenchmarkTMatMulAddInto(b *testing.B) {
	// The fused gradient-accumulation kernel of Dense.Backward.
	r := NewRNG(3)
	u := RandN(r, 512, 64, 1)
	acc := Zeros(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulAddInto(acc, u, u)
	}
}

// BenchmarkSPDInverse tracks the K-FAC inversion unit at the factor sizes
// the benchmark workloads use. GFLOP/s counts the n^3 flops of Cholesky
// (n^3/3) plus cholesky_inverse (2n^3/3); the Into form must not allocate
// in steady state.
func BenchmarkSPDInverse(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(6)
			m := RandSPD(r, n, 1)
			dst := Zeros(n, n)
			if err := SPDInverseInto(dst, m, 1e-3); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SPDInverseInto(dst, m, 1e-3); err != nil {
					b.Fatal(err)
				}
			}
			nf := float64(n)
			b.ReportMetric(nf*nf*nf*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkKronMatVec(b *testing.B) {
	// The preconditioning kernel B⁻¹ G A⁻¹ for a 64->64 layer.
	r := NewRNG(7)
	a := RandSPD(r, 64, 1)
	bb := RandSPD(r, 64, 1)
	g := RandN(r, 64, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KronMatVec(a, bb, g)
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(8)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
