// Package nn implements the neural-network substrate for the PipeFisher
// reproduction: fully-connected layers, layer normalization, GELU,
// multi-head self-attention, transformer encoder blocks, embeddings, and
// the masked-language-modeling loss — all with hand-written backward passes.
//
// Two design points matter for K-FAC (the paper's §2.3):
//
//   - Inputs are token matrices: a mini-batch of B sequences of length S is
//     an (B·S) x d matrix, so every fully-connected layer sees exactly the
//     per-example activations a_l the Kronecker factor A_l needs.
//   - Dense layers can capture their input activations and output error
//     signals during forward/backward; the kfac package turns those into
//     A_l = ⟨a a^T⟩ and B_l = ⟨e e^T⟩.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is one named trainable tensor with its gradient accumulator.
// Biases are represented as 1 x n matrices so optimizers handle a single
// type.
type Param struct {
	// Name identifies the parameter (e.g. "block0.attn.q.weight").
	Name string
	// Value is the current parameter value.
	Value *tensor.Matrix
	// Grad is the gradient accumulated by Backward calls since the last
	// ZeroGrad. It always has the same shape as Value.
	Grad *tensor.Matrix
}

// NumElements returns the parameter's element count.
func (p *Param) NumElements() int { return p.Value.Rows * p.Value.Cols }

// Module is a differentiable layer mapping token matrices to token matrices.
type Module interface {
	// Forward consumes an N x din input and returns the N x dout output,
	// caching whatever the backward pass needs.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input), adding
	// parameter gradients into the Params' Grad fields.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the module's trainable parameters (possibly empty).
	Params() []*Param
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// CopyParams copies the parameter values of src into dst, matched by
// position. The lists must be congruent (same length, same shapes) — the
// case when both models were built from the same configuration. Gradients
// are not copied. This is the weight-broadcast primitive data-parallel
// replicas use to start each step from identical parameters.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParams length mismatch: %d vs %d params", len(dst), len(src))
	}
	for i, d := range dst {
		s := src[i]
		if d.Value.Rows != s.Value.Rows || d.Value.Cols != s.Value.Cols {
			return fmt.Errorf("nn: CopyParams shape mismatch at %q: %dx%d vs %dx%d",
				d.Name, d.Value.Rows, d.Value.Cols, s.Value.Rows, s.Value.Cols)
		}
		d.Value.CopyFrom(s.Value)
	}
	return nil
}

// CopyParamsResident copies src parameter values into the dst params that
// currently have storage, skipping dst params whose Value was detached
// (Data == nil) — the broadcast primitive for ZeRO-style sharded replicas,
// which keep only their owned shard resident and gather the rest on use.
func CopyParamsResident(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParamsResident length mismatch: %d vs %d params", len(dst), len(src))
	}
	for i, d := range dst {
		if d.Value.Data == nil {
			continue
		}
		s := src[i]
		if d.Value.Rows != s.Value.Rows || d.Value.Cols != s.Value.Cols {
			return fmt.Errorf("nn: CopyParamsResident shape mismatch at %q: %dx%d vs %dx%d",
				d.Name, d.Value.Rows, d.Value.Cols, s.Value.Rows, s.Value.Cols)
		}
		d.Value.CopyFrom(s.Value)
	}
	return nil
}

// ShareParamValues makes dst compute with src's parameter values: every
// dst Value keeps its header (the one dst's modules hold) but its Data
// becomes src's slice, matched by position over congruent lists, so a write
// through either list is seen by both and dst holds no second copy. A src
// Value without storage (detached by a sharded replica) leaves dst detached
// too. Gradients stay separate. This is how Chimera's up-pipeline module
// set runs on its replica's weights.
func ShareParamValues(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: ShareParamValues length mismatch: %d vs %d params", len(dst), len(src))
	}
	for i, d := range dst {
		s := src[i]
		if d.Value.Rows != s.Value.Rows || d.Value.Cols != s.Value.Cols {
			return fmt.Errorf("nn: ShareParamValues shape mismatch at %q: %dx%d vs %dx%d",
				d.Name, d.Value.Rows, d.Value.Cols, s.Value.Rows, s.Value.Cols)
		}
		d.Value.Data = s.Value.Data
	}
	return nil
}

// NumParameters sums the element counts of params.
func NumParameters(params []*Param) int {
	var n int
	for _, p := range params {
		n += p.NumElements()
	}
	return n
}

// GradNorm returns the global L2 norm of all gradients in params.
func GradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, v := range p.Grad.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Sequential chains modules back to back.
type Sequential struct {
	Modules []Module
}

// NewSequential builds a Sequential from the given modules.
func NewSequential(modules ...Module) *Sequential {
	return &Sequential{Modules: modules}
}

// Forward applies every module in order.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, m := range s.Modules {
		x = m.Forward(x)
	}
	return x
}

// Backward applies every module's backward in reverse order.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Modules) - 1; i >= 0; i-- {
		grad = s.Modules[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all modules.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, m := range s.Modules {
		out = append(out, m.Params()...)
	}
	return out
}
