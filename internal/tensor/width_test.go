package tensor

import (
	"fmt"
	"math"
	"testing"
)

// KernelFMA resolves to 256-bit or 512-bit tiles by CPUID/XCR0 and the two
// must be the same function: every C element is one FMA per k in ascending
// k from the stored C at either width. These tests flip the resolved width
// (fmaWide, unexported) on a host that has both and demand equal bits.

// atFMAWidth runs f with KernelFMA pinned to the 512-bit (wide) or 256-bit
// tiles.
func atFMAWidth(wide bool, f func()) {
	defer fmaWide.Store(fmaWide.Swap(wide))
	f()
}

// sameBits is Equal on the bit patterns: it tells -0 from +0 and accepts
// equal NaNs.
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// widthOperand cuts a contiguous rows x cols operand out of src, the one
// random matrix every operand of the width-identity matrix comes from —
// MulViews' as strided windows of it — so both widths read identical inputs
// and the 14 400 cases draw no normals of their own.
func widthOperand(src *Matrix, off, rows, cols int) *Matrix {
	return New(rows, cols, src.Data[off:off+rows*cols])
}

// widthOps is every driver entry point as a function of one (m, n, k)
// shape, returning the matrices it wrote.
var widthOps = []struct {
	name string
	run  func(src *Matrix, m, n, k int) []*Matrix
}{
	{"MatMulInto", func(src *Matrix, m, n, k int) []*Matrix {
		dst := Full(m, n, 42)
		MatMulInto(dst, widthOperand(src, 0, m, k), widthOperand(src, m*k, k, n))
		return []*Matrix{dst}
	}},
	{"MatMulTInto", func(src *Matrix, m, n, k int) []*Matrix {
		dst := Full(m, n, 42)
		MatMulTInto(dst, widthOperand(src, 0, m, k), widthOperand(src, m*k, n, k))
		return []*Matrix{dst}
	}},
	{"TMatMulInto", func(src *Matrix, m, n, k int) []*Matrix {
		dst := Full(m, n, 42)
		TMatMulInto(dst, widthOperand(src, 0, k, m), widthOperand(src, m*k, k, n))
		return []*Matrix{dst}
	}},
	{"TMatMulAddInto", func(src *Matrix, m, n, k int) []*Matrix {
		dst := widthOperand(src, (m+n)*k, m, n).Clone()
		TMatMulAddInto(dst, widthOperand(src, 0, k, m), widthOperand(src, m*k, k, n))
		return []*Matrix{dst}
	}},
	{"Snap.GramInto", func(src *Matrix, m, n, k int) []*Matrix {
		s := SnapClone(widthOperand(src, m, k, n)) // float32 storage under SetF32
		defer s.Release()
		dst := Full(n, n, 42)
		s.GramInto(dst)
		dst.MirrorLower() // the upper triangle is unspecified until the fold's mirror
		return []*Matrix{dst}
	}},
	{"MulViews", func(src *Matrix, m, n, k int) []*Matrix {
		// All four transpose combinations over strided windows, as a
		// batch of three (the product fan-out) and a batch of one (the
		// single-product path).
		var ps []Product
		var out []*Matrix
		for tr := 0; tr < 4; tr++ {
			p := Product{TransA: tr&1 != 0, TransB: tr&2 != 0}
			ar, ac, br, bc := m, k, k, n
			if p.TransA {
				ar, ac = k, m
			}
			if p.TransB {
				br, bc = n, k
			}
			dst := Full(m+3, n+5, 42)
			p.Dst, p.A, p.B = dst.View(1, 2+tr, m, n), src.View(tr, 3*tr, ar, ac), src.View(50+tr, 7*tr, br, bc)
			ps, out = append(ps, p), append(out, dst)
		}
		MulViews(ps[:3])
		MulViews(ps[3:])
		return out
	}},
}

func TestFMAWidthIdentity(t *testing.T) {
	if !haveAVX512Kernels {
		t.Skip("fma width: avx512 absent")
	}
	def := ActiveKernel()
	defer SetKernel(def)
	if err := SetKernel(KernelFMA); err != nil {
		t.Fatal(err)
	}
	defer SetParallelism(0)
	defer SetF32(false)
	// Edge tiles in both dimensions around the 4-, 8-, 16- and 32-lane
	// panels; KC boundaries of both widths' depths on both sides.
	src := RandN(NewRNG(22), 700, 700, 1)
	dims := []int{1, 7, 8, 15, 16, 17, 31, 33, 64, 130}
	ks := []int{1, 7, 255, 256, 257, 600}
	if raceEnabled {
		ks = []int{7, 257} // instrumented packing is ~10x slower; widths race nowhere new
	}
	compare := func(name string, run func() []*Matrix) {
		var narrow, wide []*Matrix
		atFMAWidth(false, func() { narrow = run() })
		atFMAWidth(true, func() { wide = run() })
		for i := range narrow {
			if !sameBits(narrow[i], wide[i]) {
				t.Fatalf("%s, output %d: 512-bit tiles differ from 256-bit tiles (max %g)", name, i, narrow[i].Sub(wide[i]).MaxAbs())
			}
		}
	}
	for _, f32 := range []bool{false, true} {
		SetF32(f32)
		for _, workers := range []int{1, 2} {
			SetParallelism(workers)
			cfg := fmt.Sprintf("f32=%v workers=%d", f32, workers)
			for _, m := range dims {
				for _, n := range dims {
					for _, k := range ks {
						for _, op := range widthOps {
							compare(fmt.Sprintf("%s %dx%dx%d %s", op.name, m, n, k, cfg), func() []*Matrix {
								return op.run(src, m, n, k)
							})
						}
					}
				}
			}
			// The blocked inverse: triangular and lower-only driver
			// variants on sub-block views, split points at 64 and, at
			// most 64 rows, at 16.
			for _, n := range []int{1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 200, 512} {
				spd := spdCase(uint64(n), n, max(n/2, 1), 1e-2)
				compare(fmt.Sprintf("SPDInverseInto n=%d %s", n, cfg), func() []*Matrix {
					dst := Full(n, n, 42)
					if err := SPDInverseInto(dst, spd, 1e-3); err != nil {
						t.Fatal(err)
					}
					return []*Matrix{dst}
				})
			}
		}
	}
	t.Log("fma width: avx512 tested")
}
