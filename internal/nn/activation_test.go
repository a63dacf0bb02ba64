package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// GELU's Forward retains Φ(x) for Backward and writes y = x*Φ(x). Both
// passes must equal the formulas that evaluated erf twice — y = 0.5*x*(1 +
// erf(x/√2)) and dy*(Φ(x) + x*φ(x)) with Φ recomputed — bit for bit, over
// ordinary, large, tiny and zero inputs, and across a shape change.
func TestGELUMatchesTwoErfFormulas(t *testing.T) {
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
			if want := 0.5 * v * (1 + math.Erf(v/math.Sqrt2)); y.Data[i] != want {
				t.Fatalf("forward(%g) = %g, want %g", v, y.Data[i], want)
			}
			cdf := 0.5 * (1 + math.Erf(v/math.Sqrt2))
			pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
			if want := grad.Data[i] * (cdf + v*pdf); dx.Data[i] != want {
				t.Fatalf("backward at %g = %g, want %g", v, dx.Data[i], want)
			}
		}
	}
}
