package tensor

import (
	"fmt"
	"testing"
)

// reportGFLOPS adds the GFLOP/s column of a benchmark whose op is an
// m x n x k product, counted at the nominal 2mnk (the Gram forms compute
// about half of it).
func reportGFLOPS(b *testing.B, m, n, k int) {
	b.ReportMetric(2*float64(m)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

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
			reportGFLOPS(b, n, n, n)
		})
	}
}

// BenchmarkMicroKernel is the bottom rung of the ladder: one register tile
// updated from packed panels that stay in L1 (kc = 256), so its GFLOP/s is
// the peak the packed driver can reach on one core and driver efficiency is
// a BenchmarkMatMul row's gflops over the matching row here. Rows for
// instruction sets the host lacks are skipped.
func BenchmarkMicroKernel(b *testing.B) {
	const kc = 256
	run := func(name string, have bool, mr, nr int, kernel func()) {
		b.Run(name, func(b *testing.B) {
			if !have {
				b.Skip("instruction set absent on this host")
			}
			for i := 0; i < b.N; i++ {
				kernel()
			}
			reportGFLOPS(b, mr, nr, kc)
		})
	}
	// Zero panels keep the tile finite however long the row runs.
	a64, b64, c64 := make([]float64, 8*kc), make([]float64, 16*kc), make([]float64, 8*16)
	a32, b32, c32 := make([]float32, 8*kc), make([]float32, 32*kc), make([]float32, 8*32)
	run("avx2_8x4f64", haveFMAKernels, 8, 4, func() { fma8x4f64(c64, 4, a64, b64, kc) })
	run("avx512_8x16f64", haveAVX512Kernels, 8, 16, func() { fma8x16f64(c64, 16, a64, b64, kc) })
	run("avx2_8x8f32", haveFMAKernels, 8, 8, func() { fma8x8f32(c32, 8, a32, b32, kc) })
	run("avx512_8x32f32", haveAVX512Kernels, 8, 32, func() { fma8x32f32(c32, 32, a32, b32, kc) })
}

// BenchmarkPack is the panel-packing rung under the GEMM driver at the
// operand shapes of one attention item (S = 64, dk = 16, the fma kernels'
// mr = 8, nr = 4): lanes from source rows (A as stored, B transposed) and
// lanes from source columns (A transposed, B as stored). The nr16 / nr32f32
// rows pack the same windows into the 512-bit tiles' panels.
func BenchmarkPack(b *testing.B) {
	rng := NewRNG(1)
	head := RandN(rng, 128, 64, 1).View(64, 16, 64, 16) // one head's S x dk window
	probs := RandN(rng, 64, 64, 1).View(0, 0, 64, 64)
	buf, buf32 := make([]float64, 64*64), make([]float32, 64*64)
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
		{"B_rows_64x16_nr16", func() { packB(buf, head, true, 64, 16, 16) }, 64 * 16},
		{"B_cols_64x16_nr16", func() { packB(buf, head, false, 16, 64, 16) }, 64 * 16},
		{"B_rows_64x64_nr16", func() { packB(buf, probs, true, 64, 64, 16) }, 64 * 64},
		{"B_cols_64x64_nr16", func() { packB(buf, probs, false, 64, 64, 16) }, 64 * 64},
		{"B_rows_64x64_nr32f32", func() { packB(buf32, probs, true, 64, 64, 32) }, 64 * 64},
		{"B_cols_64x64_nr32f32", func() { packB(buf32, probs, false, 64, 64, 32) }, 64 * 64},
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
			reportGFLOPS(b, 256, 256, 256)
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
			reportGFLOPS(b, 256, 256, 256)
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
			reportGFLOPS(b, n, n, n)
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
	reportGFLOPS(b, 128, 128, 256)
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
	reportGFLOPS(b, 128, 128, 256)
}

func BenchmarkTMatMul(b *testing.B) {
	// The curvature kernel shape: U^T U with tall U (tokens x features).
	r := NewRNG(3)
	u := RandN(r, 512, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(TMatMul(u, u)) // pooled result: steady state allocates nothing
	}
	reportGFLOPS(b, 64, 64, 512)
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
	reportGFLOPS(b, 64, 64, 512)
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
