package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Kernel-variant parity suite (runs under -race and under the purego tag,
// where AvailableKernels simply omits KernelFMA):
//
//   - float64: KernelTiled must be bit-identical to KernelScalar (same
//     per-element multiply-round/add-round sequence); KernelFMA must agree
//     to fused-rounding tolerance.
//   - float32 mode: scalar and tiled share the 4x4 Go kernel and must be
//     bit-identical to a naive ascending-k float32 reduction; FMA agrees
//     to float32 tolerance.
//   - every variant x dtype must be worker-count bit-identical.

// fmaTol bounds the scalar-vs-FMA disagreement for float64 operands drawn
// from N(0,1) with k <= a few hundred (per-step fused-rounding delta
// ~1e-16, accumulated).
const fmaTol = 1e-12

// fmaTol32 is the float32-mode analogue (eps ~1.2e-7, accumulated).
const fmaTol32 = 1e-3

// withKernels runs f once per available kernel variant, with exact=true
// for the variants whose float64 results must match the scalar reference
// bit for bit. The default kernel is restored afterwards.
func withKernels(t *testing.T, f func(t *testing.T, exact bool)) {
	t.Helper()
	def := ActiveKernel()
	defer func() {
		if err := SetKernel(def); err != nil {
			t.Fatal(err)
		}
	}()
	for _, k := range AvailableKernels() {
		if err := SetKernel(k); err != nil {
			t.Fatal(err)
		}
		t.Run("kernel="+k.String(), func(t *testing.T) {
			f(t, k != KernelFMA)
		})
	}
}

// checkMat asserts got against want: bit-exact when exact, within fmaTol
// otherwise.
func checkMat(t *testing.T, op string, got, want *Matrix, exact bool) {
	t.Helper()
	if exact {
		if !got.Equal(want) {
			t.Fatalf("%s [%s] differs from scalar reference (max %g)",
				op, ActiveKernel(), got.Sub(want).MaxAbs())
		}
		return
	}
	if !got.AllClose(want, fmaTol) {
		t.Fatalf("%s [%s] outside FMA tolerance %g (max %g)",
			op, ActiveKernel(), fmaTol, got.Sub(want).MaxAbs())
	}
}

// withF32 enables float32 mode for the duration of f.
func withF32(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	SetF32(true)
	defer SetF32(false)
	f(t)
}

// Naive float32 references: narrow the operands once, reduce each output
// element ascending k in float32 (one multiply-rounding and one
// add-rounding per step — the tiled Go kernel's exact sequence), widen the
// total.

func refMatMul32(a, b *Matrix) *Matrix {
	out := Zeros(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for kk := 0; kk < a.Cols; kk++ {
				s += float32(a.Data[i*a.Cols+kk]) * float32(b.Data[kk*b.Cols+j])
			}
			out.Data[i*b.Cols+j] = float64(s)
		}
	}
	return out
}

func refMatMulT32(a, b *Matrix) *Matrix {
	out := Zeros(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for kk := 0; kk < a.Cols; kk++ {
				s += float32(a.Data[i*a.Cols+kk]) * float32(b.Data[j*b.Cols+kk])
			}
			out.Data[i*b.Rows+j] = float64(s)
		}
	}
	return out
}

// refTMatMulAdd32 computes dst += widen(f32product(a^T b)) — the float32
// accumulate contract: the product is float32, the accumulator stays
// float64.
func refTMatMulAdd32(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for r := 0; r < a.Rows; r++ {
				s += float32(a.Data[r*a.Cols+i]) * float32(b.Data[r*b.Cols+j])
			}
			dst.Data[i*b.Cols+j] += float64(s)
		}
	}
}

func TestF32KernelsMatchNaiveFloat32Reference(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withF32(t, func(t *testing.T) {
			for _, sh := range parityShapes {
				rng := NewRNG(uint64(3*sh.n + 5*sh.k + 7*sh.p))
				a := RandN(rng, sh.n, sh.k, 1)
				b := RandN(rng, sh.k, sh.p, 1)
				bt := RandN(rng, sh.p, sh.k, 1)
				c := RandN(rng, sh.n, sh.p, 1)

				got := Full(sh.n, sh.p, 42)
				MatMulInto(got, a, b)
				checkMat32(t, fmt.Sprintf("f32 MatMulInto %dx%dx%d", sh.n, sh.k, sh.p),
					got, refMatMul32(a, b), exact)

				got = Full(sh.n, sh.p, 42)
				MatMulTInto(got, a, bt)
				checkMat32(t, fmt.Sprintf("f32 MatMulTInto %dx%dx%d", sh.n, sh.k, sh.p),
					got, refMatMulT32(a, bt), exact)

				// Accumulate path: float64 dst must gain the widened
				// float32 product, not be narrowed itself.
				acc := RandN(rng, sh.k, sh.p, 1)
				want := acc.Clone()
				refTMatMulAdd32(want, a, c)
				TMatMulAddInto(acc, a, c)
				checkMat32(t, fmt.Sprintf("f32 TMatMulAddInto %dx%dx%d", sh.n, sh.k, sh.p),
					acc, want, exact)
			}
		})
	})
}

func checkMat32(t *testing.T, op string, got, want *Matrix, exact bool) {
	t.Helper()
	if exact {
		if !got.Equal(want) {
			t.Fatalf("%s [%s] differs from naive float32 reference (max %g)",
				op, ActiveKernel(), got.Sub(want).MaxAbs())
		}
		return
	}
	if !got.AllClose(want, fmaTol32) {
		t.Fatalf("%s [%s] outside float32 FMA tolerance %g (max %g)",
			op, ActiveKernel(), fmaTol32, got.Sub(want).MaxAbs())
	}
}

func TestF32GramAliasing(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withF32(t, func(t *testing.T) {
			rng := NewRNG(17)
			u := RandN(rng, 41, 23, 1)
			got := Get(23, 23)
			defer Put(got)
			TMatMulInto(got, u, u)
			want := Zeros(23, 23)
			refTMatMulAdd32(want, u, u)
			checkMat32(t, "f32 TMatMulInto(U, U)", got, want, exact)
		})
	})
}

func TestF32WorkerCountBitIdentity(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		withF32(t, func(t *testing.T) {
			defer SetParallelism(0)
			defer SetOpParallelism(0)
			rng := NewRNG(29)
			a := RandN(rng, 130, 90, 1)
			b := RandN(rng, 90, 70, 1)
			SetParallelism(1)
			serial := MatMul(a, b)
			SetParallelism(8)
			SetOpParallelism(0)
			parallel := MatMul(a, b)
			if !serial.Equal(parallel) {
				t.Fatalf("[%s] float32 parallel MatMul not bit-identical to serial", ActiveKernel())
			}
			Put(serial)
			Put(parallel)
		})
	})
}

func TestTiledBitIdenticalToScalarFloat64(t *testing.T) {
	// The tiled Go kernel's per-element sequence (multiply-round,
	// add-round, ascending k) is the scalar reference's sequence — the
	// property that lets KernelTiled inherit every bit-identity contract
	// without a tolerance.
	for _, sh := range parityShapes {
		rng := NewRNG(uint64(11*sh.n + sh.k + 3*sh.p))
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.k, sh.p, 1)
		if err := SetKernel(KernelScalar); err != nil {
			t.Fatal(err)
		}
		want := MatMul(a, b)
		if err := SetKernel(KernelTiled); err != nil {
			t.Fatal(err)
		}
		got := MatMul(a, b)
		if !got.Equal(want) {
			t.Fatalf("tiled MatMul %dx%dx%d not bit-identical to scalar (max %g)",
				sh.n, sh.k, sh.p, got.Sub(want).MaxAbs())
		}
		Put(want)
		Put(got)
	}
	if err := SetKernel(bestKernel()); err != nil {
		t.Fatal(err)
	}
}

func bestKernel() Kernel {
	ks := AvailableKernels()
	return ks[len(ks)-1]
}

func TestKernelDispatch(t *testing.T) {
	def := ActiveKernel()
	defer SetKernel(def)
	ks := AvailableKernels()
	if len(ks) < 2 || ks[0] != KernelScalar || ks[1] != KernelTiled {
		t.Fatalf("AvailableKernels() = %v, want scalar and tiled always present", ks)
	}
	for _, k := range ks {
		if err := SetKernel(k); err != nil {
			t.Fatalf("SetKernel(%s): %v", k, err)
		}
		if ActiveKernel() != k {
			t.Fatalf("ActiveKernel() = %s after SetKernel(%s)", ActiveKernel(), k)
		}
		if d := KernelDetail(); !strings.HasPrefix(d, k.String()) {
			t.Fatalf("KernelDetail() = %q under SetKernel(%s), want the variant's name first", d, k)
		}
	}
	if err := SetKernel(Kernel(99)); err == nil {
		t.Fatal("SetKernel(99) must fail")
	}
	if !haveFMAKernels {
		if err := SetKernel(KernelFMA); err == nil {
			t.Fatal("SetKernel(fma) must fail when FMA kernels are unavailable")
		}
	}
	if KernelScalar.String() != "scalar" || KernelTiled.String() != "tiled" || KernelFMA.String() != "fma" {
		t.Fatal("kernel names must be stable (CLI headers and bench rows use them)")
	}
}

func TestKernelsLargeShapeAgreement(t *testing.T) {
	// A shape big enough to exercise multiple KC blocks and MC blocks at
	// once (KC blocking must stay bit-transparent for scalar/tiled).
	rng := NewRNG(41)
	a := RandN(rng, 300, 600, 1)
	b := RandN(rng, 600, 70, 1)
	want := refMatMul(a, b)
	withKernels(t, func(t *testing.T, exact bool) {
		got := MatMul(a, b)
		checkMat(t, "MatMul 300x600x70", got, want, exact)
		Put(got)
	})
}

func TestF32ModeToggle(t *testing.T) {
	if F32() {
		t.Fatal("float32 mode must default to off")
	}
	SetF32(true)
	if !F32() {
		t.Fatal("SetF32(true) not visible")
	}
	SetF32(false)
	if F32() {
		t.Fatal("SetF32(false) not visible")
	}
}

func TestF32NarrowingActuallyHappens(t *testing.T) {
	// Guard against the mode silently running float64: a value whose
	// float32 rounding is far from its float64 value must show the
	// rounding in the product.
	withF32(t, func(t *testing.T) {
		a := FromRows([][]float64{{1 + 1e-12}})
		b := FromRows([][]float64{{1}})
		out := Zeros(1, 1)
		MatMulInto(out, a, b)
		if out.Data[0] != 1 {
			t.Fatalf("float32 mode product = %v, want exactly 1 (1+1e-12 narrows to 1)", out.Data[0])
		}
	})
	a := FromRows([][]float64{{1 + 1e-12}})
	b := FromRows([][]float64{{1}})
	out := Zeros(1, 1)
	MatMulInto(out, a, b)
	if math.Abs(out.Data[0]-(1+1e-12)) > 1e-15 {
		t.Fatalf("float64 mode product = %v, want 1+1e-12", out.Data[0])
	}
}
