package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer computing Y = X W^T + b for token
// matrices X (N x din), with W of shape dout x din and bias b of length
// dout.
//
// When CaptureKFAC is set, Forward stores the input activations and
// Backward stores the raw output gradients; the kfac package consumes both
// through KFACStats to build the Kronecker factors A_l and B_l of §2.3.
type Dense struct {
	// Name labels the layer for parameter naming and K-FAC registration.
	Name string
	// W is the dout x din weight matrix; B the 1 x dout bias.
	W, B *tensor.Matrix
	// GW and GB accumulate gradients.
	GW, GB *tensor.Matrix
	// CaptureKFAC enables recording of activations and errors.
	CaptureKFAC bool

	lastInput *tensor.Matrix // N x din, retained for backward + A_l

	// outBuf is the retained Forward result: in steady state (stable batch
	// shape) Forward and Backward allocate nothing. The returned matrices
	// are owned by the layer — Backward's by its scratch — and valid only
	// until the next Forward/Backward; callers that need them longer must
	// clone.
	outBuf *tensor.Matrix // N x dout
	// bw is the backward scratch (scratch.go): the input gradient and the
	// output-gradient capture. Nil until the first Backward, which gives the
	// layer one of its own unless a BlockScratch was attached.
	bw *denseScratch
}

// scratch returns the layer's backward scratch, its own when nothing was
// attached.
func (d *Dense) scratch() *denseScratch {
	if d.bw == nil {
		d.bw = new(denseScratch)
	}
	return d.bw
}

// NewDense builds a Dense layer with Xavier-initialized weights and zero
// biases.
func NewDense(name string, din, dout int, rng *tensor.RNG) *Dense {
	return &Dense{
		Name: name,
		W:    tensor.XavierInit(rng, dout, din),
		B:    tensor.Zeros(1, dout),
		GW:   tensor.Zeros(dout, din),
		GB:   tensor.Zeros(1, dout),
	}
}

// DIn returns the input dimensionality.
func (d *Dense) DIn() int { return d.W.Cols }

// DOut returns the output dimensionality.
func (d *Dense) DOut() int { return d.W.Rows }

// Forward computes Y = X W^T + b into the layer's retained output buffer
// (zero allocations in steady state) and caches X.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.W.Cols {
		panic(fmt.Sprintf("nn: Dense %q expects %d input features, got %d", d.Name, d.W.Cols, x.Cols))
	}
	if x == d.outBuf {
		// Pathological self-feed; fall back to a fresh output.
		d.outBuf = nil
	}
	d.lastInput = x
	y := tensor.Reuse(d.outBuf, x.Rows, d.W.Rows) // N x dout
	d.outBuf = y
	tensor.MatMulTInto(y, x, d.W)
	bias := d.B.Data
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j, bv := range bias {
			row[j] += bv
		}
	}
	return y
}

// Backward accumulates dW += dY^T X (fused, no temporary) and
// db += colsum(dY), and returns dX = dY W in the layer's retained gradient
// buffer (zero allocations in steady state).
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.lastInput == nil {
		panic(fmt.Sprintf("nn: Dense %q Backward before Forward", d.Name))
	}
	if grad.Rows != d.lastInput.Rows || grad.Cols != d.W.Rows {
		panic(fmt.Sprintf("nn: Dense %q Backward got %dx%d grad, want %dx%d",
			d.Name, grad.Rows, grad.Cols, d.lastInput.Rows, d.W.Rows))
	}
	bw := d.scratch()
	if d.CaptureKFAC {
		if tensor.F32() {
			bw.capture32 = tensor.Reuse32(bw.capture32, grad.Rows, grad.Cols)
			bw.capture32.NarrowFrom(grad)
			bw.is32 = true
			bw.outputGrad = nil
		} else {
			bw.capture = tensor.Reuse(bw.capture, grad.Rows, grad.Cols)
			bw.capture.CopyFrom(grad)
			bw.is32 = false
			bw.outputGrad = bw.capture
		}
	}
	tensor.TMatMulAddInto(d.GW, grad, d.lastInput)
	gb := d.GB.Data
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j, v := range row {
			gb[j] += v
		}
	}
	if grad == bw.dx {
		bw.dx = nil
	}
	dx := tensor.Reuse(bw.dx, grad.Rows, d.W.Cols)
	bw.dx = dx
	tensor.MatMulInto(dx, grad, d.W)
	return dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param {
	return []*Param{
		{Name: d.Name + ".weight", Value: d.W, Grad: d.GW},
		{Name: d.Name + ".bias", Value: d.B, Grad: d.GB},
	}
}

// KFACStats returns the cached activations (N x din) and raw output
// gradients (N x dout) from the most recent forward/backward pair. The
// boolean is false until both are available. The output gradients are the
// backprop values dL/dY; the kfac package rescales them into per-example
// errors e_l.
func (d *Dense) KFACStats() (acts, grads *tensor.Matrix, ok bool) {
	if !d.CaptureKFAC || d.lastInput == nil {
		return nil, nil, false
	}
	if grads = d.CapturedOutputGrad(); grads == nil {
		return nil, nil, false
	}
	return d.lastInput, grads, true
}

// CapturedInput returns the input activations cached by the most recent
// Forward (nil before any forward). Unlike KFACStats it does not require a
// backward to have run: the pipeline executor snapshots it right after a
// micro-batch's forward, which is exactly when the paper's rule 1 makes the
// A-factor curvature work of that micro-batch schedulable.
func (d *Dense) CapturedInput() *tensor.Matrix { return d.lastInput }

// CapturedOutputGrad returns the raw output gradients cached by the most
// recent Backward when CaptureKFAC is set (nil otherwise) — the B-factor
// statistics that become schedulable after the micro-batch's backward. In
// float32 storage mode the capture widens into the layer's float64 scratch
// on demand; snapshot consumers should prefer CapturedOutputGradSnap,
// which hands out the narrow buffer without conversion.
func (d *Dense) CapturedOutputGrad() *tensor.Matrix {
	bw := d.scratch()
	if bw.is32 {
		if bw.capture32 == nil {
			return nil
		}
		bw.capture = tensor.Reuse(bw.capture, bw.capture32.Rows, bw.capture32.Cols)
		bw.capture32.WidenInto(bw.capture)
		return bw.capture
	}
	return bw.outputGrad
}

// CapturedOutputGradSnap returns the latest output-gradient capture as a
// precision-tagged Snap borrowing the scratch's buffer (invalid Snap when
// nothing is captured). Like the matrix accessors, the underlying buffer
// is only valid until the next Backward through the same scratch — clone to
// retain.
func (d *Dense) CapturedOutputGradSnap() tensor.Snap {
	bw := d.scratch()
	if bw.is32 {
		if bw.capture32 == nil {
			return tensor.Snap{}
		}
		return tensor.SnapOf32(bw.capture32)
	}
	if bw.outputGrad == nil {
		return tensor.Snap{}
	}
	return tensor.SnapOf(bw.outputGrad)
}

// ClearCapture drops the cached K-FAC statistics (e.g. between curvature
// refreshes, to release memory — the Msave_err term in the paper's memory
// model exists precisely because these buffers are retained).
func (d *Dense) ClearCapture() {
	bw := d.scratch()
	bw.outputGrad = nil
	bw.is32 = false
}
