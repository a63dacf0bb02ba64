package tensor

import (
	"fmt"
	"math"
	"testing"
)

// fillNaN sets every element of m to NaN.
func fillNaN(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
}

// signedZeroOperands returns an m x k and a k x n operand whose every
// product is -0 (-1 against +0 and +0 against -1 alternate), so an
// overwrite whose accumulator started anywhere but +0 would show.
func signedZeroOperands(m, k, n int) (a, b *Matrix) {
	a, b = Zeros(m, k), Zeros(k, n)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = -1
		}
	}
	for i := range b.Data {
		if i%2 == 1 {
			b.Data[i] = -1
		}
	}
	return a, b
}

// TestGemmStoreIgnoresDst holds every dst = entry point of the GEMM family
// to ignoring what dst held: under every variant, a dst filled with NaN
// must come out bit-identical to a zeroed one. Under fma the float64
// products run their first k block on the store tiles (accumulators from
// +0, C never loaded), so this is what pins that those tiles, the edge
// tiles' scratch and the structured variants never read dst. Shapes cover
// full and edge tiles at both tile widths, k across one and several k
// blocks, and a product that is exactly -0.
func TestGemmStoreIgnoresDst(t *testing.T) {
	type shape struct{ m, n, k int }
	shapes := []shape{{1, 1, 1}, {8, 4, 3}, {9, 5, 7}, {16, 16, 16}, {17, 33, 130}, {33, 17, 300}, {64, 64, 257}}
	check := func(t *testing.T, name string, s shape, run func(dst *Matrix), rows, cols int) {
		t.Helper()
		want, got := Zeros(rows, cols), Zeros(rows, cols)
		fillNaN(got)
		run(want)
		run(got)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s %dx%dx%d [%s]: element %d = %v over a NaN-filled dst, %v over a zeroed one",
					name, s.m, s.n, s.k, KernelDetail(), i, got.Data[i], want.Data[i])
			}
		}
	}
	all := func(t *testing.T) {
		rng := NewRNG(51)
		for _, s := range shapes {
			for _, negZero := range []bool{false, true} {
				a, b := RandN(rng, s.m, s.k, 1), RandN(rng, s.k, s.n, 1)
				if negZero {
					a, b = signedZeroOperands(s.m, s.k, s.n)
				}
				at, bt := a.T(), b.T()
				check(t, "MatMulInto", s, func(dst *Matrix) { MatMulInto(dst, a, b) }, s.m, s.n)
				check(t, "MatMulTInto", s, func(dst *Matrix) { MatMulTInto(dst, a, bt) }, s.m, s.n)
				check(t, "TMatMulInto", s, func(dst *Matrix) { TMatMulInto(dst, at, b) }, s.m, s.n)
				check(t, "TMatMulInto/gram", s, func(dst *Matrix) { TMatMulInto(dst, a, a) }, s.k, s.k)
				check(t, "MulViews", s, func(dst *Matrix) {
					MulViews([]Product{
						{Dst: dst.View(0, 0, s.m, s.n), A: a.View(0, 0, s.m, s.k), B: b.View(0, 0, s.k, s.n)},
						{Dst: dst.View(s.m, 0, s.m, s.n), A: at.View(0, 0, s.k, s.m), B: bt.View(0, 0, s.n, s.k), TransA: true, TransB: true},
					})
				}, 2*s.m, s.n)
				// The inversion chain's flag combinations on the float64
				// driver directly: square triangular operands, lower-only
				// results compared on the lower triangle (the rest is
				// unspecified until mirrored).
				sq := RandN(rng, s.k, s.k, 1)
				for _, fl := range []gemmFlags{gemmBT | gemmALower, gemmAT | gemmAUpper,
					gemmBT | gemmALower | gemmNeg, gemmAT | gemmAUpper | gemmLower} {
					check(t, fmt.Sprintf("gemmPacked/%08b", fl), s, func(dst *Matrix) {
						gemmPacked(viewOf(dst), viewOf(sq), viewOf(sq), fl|gemmF64, ActiveKernel())
						if fl&gemmLower != 0 {
							for i := 0; i < dst.Rows; i++ {
								clear(dst.Data[i*dst.Cols+i+1 : (i+1)*dst.Cols])
							}
						}
					}, s.k, s.k)
				}
			}
		}
		for _, n := range []int{5, 40, 130} {
			spd := RandN(rng, n+3, n, 1)
			spd = TMatMul(spd, spd)
			s := shape{n, n, n}
			check(t, "SPDInverseInto", s, func(dst *Matrix) {
				if err := SPDInverseInto(dst, spd, 1e-3); err != nil {
					t.Fatal(err)
				}
			}, n, n)
			check(t, "InverseChain", s, func(dst *Matrix) {
				var c InverseChain
				if err := c.Start(spd, 1e-3); err != nil {
					t.Fatal(err)
				}
				for c.Active() {
					if err := c.Step(dst); err != nil {
						t.Fatal(err)
					}
				}
			}, n, n)
		}
	}
	withKernels(t, func(t *testing.T, _ bool) {
		if ActiveKernel() != KernelFMA || !haveAVX512Kernels {
			all(t)
			return
		}
		for _, wide := range []bool{false, true} {
			t.Run(fmt.Sprintf("wide=%v", wide), func(t *testing.T) { atFMAWidth(wide, func() { all(t) }) })
		}
	})
}
