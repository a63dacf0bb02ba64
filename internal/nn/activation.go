package nn

import "repro/internal/tensor"

// GELU is the Gaussian Error Linear Unit activation used by BERT:
// gelu(x) = x * Φ(x), Φ(x) = (1 + erf(x/sqrt(2)))/2. The backward uses the
// exact derivative Φ(x) + x*φ(x) and reads Φ from the forward pass, so a
// forward + backward pair costs one erf and one exp per element — both in
// tensor's element-wise kernels (tensor.GELUForward / GELUBackward), which
// are the math.Erf / math.Exp loops under the tiled kernel and AVX2 code
// within 2 ULP of them under fma. Forward and Backward return
// retained buffers (valid until the module's next call), so the
// steady-state hot path allocates nothing.
type GELU struct {
	lastInput *tensor.Matrix
	cdfBuf    *tensor.Matrix // Φ of lastInput, element-wise
	outBuf    *tensor.Matrix
	bw        *dxScratch // backward scratch (scratch.go), its own unless attached
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
	tensor.GELUForward(y.Data, cdf.Data, x.Data)
	return y
}

// Backward multiplies the upstream gradient by gelu'(x).
func (g *GELU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if g.lastInput == nil {
		panic("nn: GELU Backward before Forward")
	}
	if g.bw == nil {
		g.bw = new(dxScratch)
	}
	if grad == g.bw.dx {
		g.bw.dx = nil
	}
	out := tensor.Reuse(g.bw.dx, grad.Rows, grad.Cols)
	g.bw.dx = out
	tensor.GELUBackward(out.Data, grad.Data, g.lastInput.Data, g.cdfBuf.Data)
	return out
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }
