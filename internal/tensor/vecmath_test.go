package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The element-wise kernel suite (vecmath.go's contract). Under KernelScalar
// and KernelTiled every result must be math.Exp's / math.Erf's bit for bit;
// under KernelFMA within vecULP of it, with the special values exact and
// every result a function of the element's value alone.

// vecULP is the stated bound of the fma kernels against math.Exp and
// math.Erf, in units in the last place.
const vecULP = 2

// vecErf is the bare erf kernel under GELUForward, dispatched the same way.
func vecErf(dst, src []float64) {
	if ActiveKernel() == KernelFMA {
		erfFMA(dst[:len(src)], src)
		return
	}
	for i, v := range src {
		dst[i] = math.Erf(v)
	}
}

// ulpDiff counts the float64s between a and b (0 for two NaNs; -0 and +0
// are one apart).
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	line := func(f float64) int64 { // monotone in f
		b := int64(math.Float64bits(f))
		if b < 0 {
			b = math.MinInt64 - b
		}
		return b
	}
	la, lb := line(a), line(b)
	if la < lb {
		la, lb = lb, la
	}
	return uint64(la - lb)
}

// expOverflow is math.Exp's documented threshold: above it the result is
// +Inf.
const expOverflow = 7.09782712893383973096e+02

// refExp returns the reference for exp(x) and the fma kernel's bound
// against it: math.Exp and vecULP, except where math.Exp overflows early —
// amd64's assembly returns +Inf from x = 709.436…, where its 2**k reaches
// k = 1024, though e**x is finite up to expOverflow. The kernel returns the
// finite value there, checked against e * math.Exp(x-1) (x-1 is exact), two
// roundings looser.
func refExp(x float64) (float64, uint64) {
	want := math.Exp(x)
	if math.IsInf(want, 1) && x <= expOverflow {
		return math.E * math.Exp(x-1), vecULP + 2
	}
	return want, vecULP
}

// vecBoundaries are the points where a kernel changes range or a result
// changes kind: erf's 0.84375, 1.25, 1/0.35 and 6 (and the x = √2·t at
// which GELU's x/√2 meets them), exp's overflow at 709.78, amd64 math.Exp's
// early one at 709.436, the last normal result at -708.396 and the last
// non-zero one at -745.13, and the special values.
func vecBoundaries() []float64 {
	base := []float64{
		0, 0.84375, 1.25, 1 / 0.35, 6, 28, 40,
		0.84375 * math.Sqrt2, 1.25 * math.Sqrt2, math.Sqrt2 / 0.35, 6 * math.Sqrt2,
		708.39, 708.3964185322641, 709.4361393, 709.78, expOverflow, 710, 745.1332191019411, 745.14, 746, 1e10,
		math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0 / (1 << 28), 2.848094538889218e-306,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	var out []float64
	for _, b := range base {
		for _, v := range []float64{b, -b} {
			out = append(out, v)
			up, down := v, v
			for i := 0; i < 3; i++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				out = append(out, up, down)
			}
		}
	}
	return out
}

// vecSweep is the dense sample: normal at four scales, uniform over the
// GELU range and over exp's whole finite range, then the boundaries.
func vecSweep() []float64 {
	per := 1 << 18 // x 6 distributions: 1.5e6 points
	if raceEnabled || testing.Short() {
		per = 1 << 13
	}
	rng := NewRNG(15)
	var xs []float64
	for _, scale := range []float64{1, 4, 30, 300} {
		for i := 0; i < per; i++ {
			xs = append(xs, scale*rng.NormFloat64())
		}
	}
	for i := 0; i < per; i++ {
		xs = append(xs, 20*rng.Float64()-10, 1470*rng.Float64()-750)
	}
	return append(xs, vecBoundaries()...)
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkExp asserts ExpShift(xs, shift) against math.Exp(x - shift).
func checkExp(t *testing.T, xs []float64, shift float64, exact bool) {
	t.Helper()
	got := make([]float64, len(xs))
	ExpShift(got, xs, shift)
	for i, x := range xs {
		want, bound := refExp(x - shift)
		if exact {
			want, bound = math.Exp(x-shift), 0
		}
		if d := ulpDiff(got[i], want); d > bound {
			t.Fatalf("exp(%v - %v) = %v, want %v: %d ULP apart, bound %d", x, shift, got[i], want, d, bound)
		}
	}
}

// checkErf asserts vecErf(xs) against math.Erf.
func checkErf(t *testing.T, xs []float64, exact bool) {
	t.Helper()
	got := make([]float64, len(xs))
	vecErf(got, xs)
	bound := uint64(vecULP)
	if exact {
		bound = 0
	}
	for i, x := range xs {
		if d := ulpDiff(got[i], math.Erf(x)); d > bound {
			t.Fatalf("erf(%v) = %v, want %v: %d ULP apart, bound %d", x, got[i], math.Erf(x), d, bound)
		}
	}
}

// checkGELU pins the two fused forms to the bare kernels: Φ = (1 + erf(x/√2))/2
// and y = x·Φ rounded as the Go loop rounds them, and dx = dy·(Φ + x·φ) with
// φ = exp(-x²/2)/√(2π) — the sum fused under fma, and only there.
func checkGELU(t *testing.T, xs []float64, exact bool) {
	t.Helper()
	n := len(xs)
	arg, erf, pdf := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, x := range xs {
		arg[i], pdf[i] = x/math.Sqrt2, -0.5*x*x
	}
	vecErf(erf, arg)
	ExpShift(pdf, pdf, 0)
	y, cdf, dx, dy := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	rng := NewRNG(16)
	for i := range dy {
		dy[i] = rng.NormFloat64()
	}
	GELUForward(y, cdf, xs)
	GELUBackward(dx, dy, xs, cdf)
	for i, x := range xs {
		wantCDF := 0.5 * (1 + erf[i])
		if !sameFloat(cdf[i], wantCDF) || !sameFloat(y[i], x*wantCDF) {
			t.Fatalf("GELUForward(%v) = %v, Φ %v; want %v, %v", x, y[i], cdf[i], x*wantCDF, wantCDF)
		}
		p := invSqrt2Pi * pdf[i]
		want := dy[i] * (wantCDF + x*p)
		if !exact {
			want = dy[i] * math.FMA(x, p, wantCDF)
		}
		if !sameFloat(dx[i], want) {
			t.Fatalf("GELUBackward at %v = %v, want %v", x, dx[i], want)
		}
	}
}

func TestVecMathAccuracy(t *testing.T) {
	xs := vecSweep()
	withKernels(t, func(t *testing.T, exact bool) {
		checkExp(t, xs, 0, exact)
		checkExp(t, xs[:1<<13], 3.25, exact)
		checkErf(t, xs, exact)
		checkGELU(t, xs, exact)
	})
}

// The special values hold exactly under every kernel, and the fma exp
// reproduces math.Exp's gradual underflow: a subnormal result is within
// vecULP of it, 0 from x = -745.14 down.
func TestVecMathSpecials(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	withKernels(t, func(t *testing.T, exact bool) {
		in := []float64{nan, inf, -inf, 0, negZero, 5e-324, -5e-324, 1e-300, -1e-300,
			math.Nextafter(expOverflow, inf), 710, 1e300, math.MaxFloat64, -745.14, -746, -1e300, -math.MaxFloat64}
		wantExp := []float64{nan, inf, 0, 1, 1, 1, 1, 1, 1, inf, inf, inf, inf, 0, 0, 0, 0}
		got := make([]float64, len(in))
		ExpShift(got, in, 0)
		for i, x := range in {
			if !sameFloat(got[i], wantExp[i]) {
				t.Errorf("exp(%v) = %v, want %v", x, got[i], wantExp[i])
			}
		}
		if ExpShift(got[:1], []float64{expOverflow}, 0); !exact && (math.IsInf(got[0], 0) || got[0] < 1.797e308) {
			t.Errorf("exp(%v) = %v, want a finite result (see refExp)", expOverflow, got[0])
		}
		for _, x := range []float64{-708.4, -720, -744, -745.13} {
			ExpShift(got[:1], []float64{x}, 0)
			if got[0] <= 0 || got[0] >= 2.2250738585072014e-308 || ulpDiff(got[0], math.Exp(x)) > vecULP {
				t.Errorf("exp(%v) = %v, want math.Exp's subnormal %v", x, got[0], math.Exp(x))
			}
		}

		in = []float64{nan, inf, -inf, 0, negZero, 6, -6, 40, -40, math.MaxFloat64, -math.MaxFloat64}
		wantErf := []float64{nan, 1, -1, 0, negZero, 1, -1, 1, -1, 1, -1}
		vecErf(got, in)
		for i, x := range in {
			if !sameFloat(got[i], wantErf[i]) {
				t.Errorf("erf(%v) = %v, want %v", x, got[i], wantErf[i])
			}
		}
		// GELU at the same points: 0·Φ keeps its sign, Φ saturates at 0 and 1.
		in = []float64{nan, 0, negZero, 1e-300, -1e-300, 40, -40, inf}
		wantY := []float64{nan, 0, negZero, 5e-301, -5e-301, 40, negZero, inf}
		wantCDF := []float64{nan, 0.5, 0.5, 0.5, 0.5, 1, 0, 1}
		cdf := make([]float64, len(in))
		GELUForward(got, cdf, in)
		for i, x := range in {
			if !sameFloat(got[i], wantY[i]) || !sameFloat(cdf[i], wantCDF[i]) {
				t.Errorf("gelu(%v) = %v, Φ %v; want %v, %v", x, got[i], cdf[i], wantY[i], wantCDF[i])
			}
		}
	})
}

// Position independence: the same values give the same bits wherever they
// sit — at every offset 0-7 of a longer slice (so every alignment and every
// lane), in slices of length 1-9 (so in the padded tail register and out of
// it), and whatever the other lanes hold (so whichever ranges the vector as
// a whole takes).
func TestVecMathPositionIndependent(t *testing.T) {
	vals := append(vecBoundaries(), vecSweep()[:64]...)
	neighbours := [][]float64{{0.1}, {1}, {2}, {4, -0.3, 1.1}, {-800, 800}, {math.NaN(), math.Inf(-1)}, {5e-324}}
	// Each kernel as a map from one input slice to its outputs, concatenated.
	kernels := map[string]func(x []float64) []float64{
		"ExpShift": func(x []float64) []float64 {
			out := make([]float64, len(x))
			ExpShift(out, x, 0.75)
			return out
		},
		"erf": func(x []float64) []float64 {
			out := make([]float64, len(x))
			vecErf(out, x)
			return out
		},
		"GELU": func(x []float64) []float64 {
			n := len(x)
			out := make([]float64, 3*n)
			GELUForward(out[:n], out[n:2*n], x)
			dy := make([]float64, n)
			for i := range dy {
				dy[i] = 1.5
			}
			GELUBackward(out[2*n:], dy, x, out[n:2*n])
			return out
		},
	}
	withKernels(t, func(t *testing.T, _ bool) {
		for name, kernel := range kernels {
			// The reference: every value alone in a slice of length 1.
			ref := make(map[uint64][]float64, len(vals))
			for _, v := range vals {
				ref[math.Float64bits(v)] = kernel([]float64{v})
			}
			backing := make([]float64, 8+9)
			for vi, v := range vals {
				want := ref[math.Float64bits(v)]
				for offset := 0; offset < 8; offset++ {
					for length := 1; length <= 9; length++ {
						x := backing[offset : offset+length]
						nb := neighbours[(vi+offset+length)%len(neighbours)]
						for i := range x {
							x[i] = nb[i%len(nb)]
						}
						at := (vi + offset) % length
						x[at] = v
						got := kernel(x)
						for k, w := range want {
							if g := got[k*length+at]; !sameFloat(g, w) {
								t.Fatalf("%s(%v) at index %d of a length-%d slice at offset %d (neighbours %v) = %v, alone %v",
									name, v, at, length, offset, nb, g, w)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzVecMath feeds arbitrary bit patterns through every kernel variant: x
// in the first and last lane of a five-element slice (one in a full vector,
// one in the padded tail) among copies of y. Scalar and tiled must return
// math's bits, fma must stay within the bound, and both placements of x
// must agree bit for bit.
func FuzzVecMath(f *testing.F) {
	for i, v := range vecBoundaries() {
		f.Add(math.Float64bits(v), math.Float64bits(float64(i%7)-3))
	}
	f.Fuzz(func(t *testing.T, xbits, ybits uint64) {
		x, y := math.Float64frombits(xbits), math.Float64frombits(ybits)
		xs := []float64{x, y, y, y, x}
		withKernels(t, func(t *testing.T, exact bool) {
			checkExp(t, xs, 0, exact)
			if !math.IsNaN(y) && !math.IsInf(y, 0) {
				checkExp(t, xs, y, exact)
			}
			checkErf(t, xs, exact)
			checkGELU(t, xs, exact)
			exp, erf, y, cdf := make([]float64, 5), make([]float64, 5), make([]float64, 5), make([]float64, 5)
			ExpShift(exp, xs, 0)
			vecErf(erf, xs)
			GELUForward(y, cdf, xs)
			for name, out := range map[string][]float64{"exp": exp, "erf": erf, "gelu": y} {
				if !sameFloat(out[0], out[4]) {
					t.Fatalf("%s(%v) = %v in lane 0 of a full vector, %v in a padded tail", name, x, out[0], out[4])
				}
			}
		})
	})
}

// BenchmarkExp and BenchmarkErf are the bare element-wise kernels over
// n = 32768 N(0,1) values (one base-shape FFN activation), one row per
// available variant.
func BenchmarkExp(b *testing.B) {
	benchVec(b, func(dst, src []float64) { ExpShift(dst, src, 0.5) })
}

func BenchmarkErf(b *testing.B) { benchVec(b, vecErf) }

func benchVec(b *testing.B, kernel func(dst, src []float64)) {
	const n = 32768
	rng := NewRNG(1)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	def := ActiveKernel()
	defer SetKernel(def)
	for _, k := range AvailableKernels() {
		if err := SetKernel(k); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kernel=%s", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
