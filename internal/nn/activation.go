package nn

import (
	"math"

	"repro/internal/tensor"
)

// GELU is the Gaussian Error Linear Unit activation used by BERT:
// gelu(x) = x * Φ(x), Φ(x) = (1 + erf(x/sqrt(2)))/2. The backward uses the
// exact derivative Φ(x) + x*φ(x) and reads Φ from the forward pass, so a
// forward + backward pair costs one erf and one exp per element. Forward
// and Backward return retained buffers (valid until the module's next
// call), so the steady-state hot path allocates nothing.
type GELU struct {
	lastInput *tensor.Matrix
	cdfBuf    *tensor.Matrix // Φ of lastInput, element-wise
	outBuf    *tensor.Matrix
	dxBuf     *tensor.Matrix
}

// NewGELU returns a GELU activation module.
func NewGELU() *GELU { return &GELU{} }

// Forward applies GELU element-wise.
func (g *GELU) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x == g.outBuf {
		g.outBuf = nil
	}
	g.lastInput = x
	y := tensor.Reuse(g.outBuf, x.Rows, x.Cols)
	g.outBuf = y
	cdf := tensor.Reuse(g.cdfBuf, x.Rows, x.Cols)
	g.cdfBuf = cdf
	for i, v := range x.Data {
		// v*c equals 0.5*v*(1+erf) bit for bit: the halving is exact.
		c := 0.5 * (1 + math.Erf(v/math.Sqrt2))
		cdf.Data[i] = c
		y.Data[i] = v * c
	}
	return y
}

// Backward multiplies the upstream gradient by gelu'(x).
func (g *GELU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if g.lastInput == nil {
		panic("nn: GELU Backward before Forward")
	}
	if grad == g.dxBuf {
		g.dxBuf = nil
	}
	out := tensor.Reuse(g.dxBuf, grad.Rows, grad.Cols)
	g.dxBuf = out
	invSqrt2Pi := 1 / math.Sqrt(2*math.Pi)
	for i, v := range g.lastInput.Data {
		pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
		out.Data[i] = grad.Data[i] * (g.cdfBuf.Data[i] + v*pdf)
	}
	return out
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// ReLU is the rectified linear activation, used in ablations.
type ReLU struct {
	lastInput *tensor.Matrix
}

// NewReLU returns a ReLU activation module.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.lastInput = x
	y := tensor.Zeros(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if r.lastInput == nil {
		panic("nn: ReLU Backward before Forward")
	}
	out := tensor.Zeros(grad.Rows, grad.Cols)
	for i, v := range r.lastInput.Data {
		if v > 0 {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation (used by the BERT pooler).
type Tanh struct {
	lastOutput *tensor.Matrix
}

// NewTanh returns a Tanh activation module.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.Zeros(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = math.Tanh(v)
	}
	t.lastOutput = y
	return y
}

// Backward multiplies by 1 - tanh²(x).
func (t *Tanh) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if t.lastOutput == nil {
		panic("nn: Tanh Backward before Forward")
	}
	out := tensor.Zeros(grad.Rows, grad.Cols)
	for i, y := range t.lastOutput.Data {
		out.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return out
}

// Params returns nil; Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }
