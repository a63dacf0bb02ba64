package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// scalarLoss reduces a module output to a scalar by a fixed weighted sum, so
// finite differences have a single number to probe. The weights are
// deterministic but non-uniform to exercise all output coordinates.
func scalarLoss(y *tensor.Matrix) (float64, *tensor.Matrix) {
	loss := 0.0
	grad := tensor.Zeros(y.Rows, y.Cols)
	for i := range y.Data {
		w := 0.1 + 0.01*float64(i%13)
		loss += w * y.Data[i]
		grad.Data[i] = w
	}
	return loss, grad
}

// checkParamGradients verifies analytic parameter gradients of run() against
// central finite differences, where run performs a fresh forward pass and
// returns the scalar loss.
func checkParamGradients(t *testing.T, params []*Param, run func() float64, backward func(), tol float64) {
	t.Helper()
	ZeroGrads(params)
	_ = run()
	backward()
	const eps = 1e-6
	for _, p := range params {
		for idx := 0; idx < len(p.Value.Data); idx += 1 + len(p.Value.Data)/17 {
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + eps
			up := run()
			p.Value.Data[idx] = orig - eps
			down := run()
			p.Value.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := p.Grad.Data[idx]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, idx, analytic, numeric)
			}
		}
	}
}

// checkInputGradient verifies the analytic input gradient against finite
// differences.
func checkInputGradient(t *testing.T, x *tensor.Matrix, run func() float64, analytic *tensor.Matrix, tol float64) {
	t.Helper()
	const eps = 1e-6
	for idx := 0; idx < len(x.Data); idx += 1 + len(x.Data)/23 {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		up := run()
		x.Data[idx] = orig - eps
		down := run()
		x.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic.Data[idx]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("input grad[%d]: analytic %g vs numeric %g", idx, analytic.Data[idx], numeric)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	layer := NewDense("fc", 5, 4, rng)
	x := tensor.RandN(rng, 6, 5, 1)
	run := func() float64 {
		loss, _ := scalarLoss(layer.Forward(x))
		return loss
	}
	var inGrad *tensor.Matrix
	backward := func() {
		y := layer.Forward(x)
		_, g := scalarLoss(y)
		inGrad = layer.Backward(g)
	}
	checkParamGradients(t, layer.Params(), run, backward, 1e-6)
	checkInputGradient(t, x, run, inGrad, 1e-6)
}

func TestGELUGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	act := NewGELU()
	x := tensor.RandN(rng, 4, 6, 1)
	run := func() float64 {
		loss, _ := scalarLoss(act.Forward(x))
		return loss
	}
	var inGrad *tensor.Matrix
	y := act.Forward(x)
	_, g := scalarLoss(y)
	inGrad = act.Backward(g)
	checkInputGradient(t, x, run, inGrad, 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	ln := NewLayerNorm("ln", 7)
	// Perturb gain/bias away from the identity so the test is non-trivial.
	for i := range ln.Gain.Data {
		ln.Gain.Data[i] = 1 + 0.1*rng.NormFloat64()
		ln.Bias.Data[i] = 0.1 * rng.NormFloat64()
	}
	x := tensor.RandN(rng, 5, 7, 1)
	run := func() float64 {
		loss, _ := scalarLoss(ln.Forward(x))
		return loss
	}
	var inGrad *tensor.Matrix
	backward := func() {
		y := ln.Forward(x)
		_, g := scalarLoss(y)
		inGrad = ln.Backward(g)
	}
	checkParamGradients(t, ln.Params(), run, backward, 1e-5)
	checkInputGradient(t, x, run, inGrad, 1e-5)
}

func TestAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	const batch, seq, d, heads = 2, 3, 8, 2
	attn := NewMultiHeadAttention("attn", d, heads, rng)
	attn.SetShape(batch, seq)
	x := tensor.RandN(rng, batch*seq, d, 1)
	run := func() float64 {
		loss, _ := scalarLoss(attn.Forward(x))
		return loss
	}
	var inGrad *tensor.Matrix
	backward := func() {
		y := attn.Forward(x)
		_, g := scalarLoss(y)
		inGrad = attn.Backward(g)
	}
	checkParamGradients(t, attn.Params(), run, backward, 1e-5)
	checkInputGradient(t, x, run, inGrad, 1e-5)
}

func TestTransformerBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	const batch, seq, d, dff, heads = 2, 3, 8, 16, 2
	blk := NewTransformerBlock("block", d, dff, heads, rng)
	blk.SetShape(batch, seq)
	x := tensor.RandN(rng, batch*seq, d, 1)
	run := func() float64 {
		loss, _ := scalarLoss(blk.Forward(x))
		return loss
	}
	var inGrad *tensor.Matrix
	backward := func() {
		y := blk.Forward(x)
		_, g := scalarLoss(y)
		inGrad = blk.Backward(g)
	}
	checkParamGradients(t, blk.Params(), run, backward, 2e-5)
	checkInputGradient(t, x, run, inGrad, 2e-5)
}

func TestCrossEntropyGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	logits := tensor.RandN(rng, 6, 9, 1)
	targets := []int{0, 3, IgnoreIndex, 8, 2, IgnoreIndex}
	_, grad, count := CrossEntropy(logits, targets)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	const eps = 1e-6
	for idx := range logits.Data {
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		up, _, _ := CrossEntropy(logits, targets)
		logits.Data[idx] = orig - eps
		down, _, _ := CrossEntropy(logits, targets)
		logits.Data[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-grad.Data[idx]) > 1e-6 {
			t.Fatalf("CE grad[%d]: analytic %g vs numeric %g", idx, grad.Data[idx], numeric)
		}
	}
}
