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

// ShareParamValues makes dst compute with src's parameter values: every
// dst Value keeps its header (the one dst's modules hold) but its Data
// becomes src's slice, matched by position over congruent lists, so a write
// through either list is seen by both and dst holds no second copy.
// Gradients stay separate. This is how every module set of the engine but
// the primary runs on the primary's weights.
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
