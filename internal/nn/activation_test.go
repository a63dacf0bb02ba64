package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// GELU's Forward retains Φ(x) for Backward and writes y = x*Φ(x). Both
// passes must equal the formulas that evaluated erf twice — y = 0.5*x*(1 +
// erf(x/√2)) and dy*(Φ(x) + x*φ(x)) with Φ recomputed — over ordinary,
// large, tiny and zero inputs, and across a shape change: bit for bit under
// the tiled kernel. Under fma, erf and exp are within 2 ULP of
// math's, which reaches Φ ∈ [0, 1] and x*φ(x) ∈ [-0.25, 0.25] as less than
// 5e-16 each: the bound is 1e-15 per unit of x (forward) or dy (backward).
func TestGELUMatchesTwoErfFormulas(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		rng := tensor.NewRNG(12)
		act := NewGELU()
		for _, shape := range [][2]int{{64, 48}, {7, 5}, {64, 48}} {
			x := tensor.RandN(rng, shape[0], shape[1], 3)
			copy(x.Data, []float64{0, math.Copysign(0, -1), 40, -40, 1e-300, -1e-300, 5.5, -5.5, 8.3, -8.3})
			grad := tensor.RandN(rng, shape[0], shape[1], 1)
			y := act.Forward(x)
			dx := act.Backward(grad)
			invSqrt2Pi := 1 / math.Sqrt(2*math.Pi)
			for i, v := range x.Data {
				var tolY, tolDx float64
				if !exact {
					tolY, tolDx = 1e-15*math.Abs(v), 1e-15*math.Abs(grad.Data[i])
				}
				if want := 0.5 * v * (1 + math.Erf(v/math.Sqrt2)); math.Abs(y.Data[i]-want) > tolY || math.Signbit(y.Data[i]) != math.Signbit(want) {
					t.Fatalf("forward(%g) = %g, want %g", v, y.Data[i], want)
				}
				cdf := 0.5 * (1 + math.Erf(v/math.Sqrt2))
				pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
				if want := grad.Data[i] * (cdf + v*pdf); math.Abs(dx.Data[i]-want) > tolDx {
					t.Fatalf("backward at %g = %g, want %g", v, dx.Data[i], want)
				}
			}
		}
	})
}
