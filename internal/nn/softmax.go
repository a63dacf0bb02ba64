package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxRows applies a numerically-stable softmax to each row of x,
// returning a new matrix.
func SoftmaxRows(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.Zeros(x.Rows, x.Cols)
	SoftmaxRowsInto(out, x)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of x into dst (same shape,
// fully overwritten; dst may alias x).
func SoftmaxRowsInto(dst, x *tensor.Matrix) { softmaxRows(dst, x, 1, false) }

// softmaxRows is tensor.SoftmaxRows on matrices: softmax(scale*x) row by
// row into dst (dst may alias x) — attention's fused scale + mask + max +
// exp + normalise pass; with causal, x is a stack of square Cols x Cols
// score blocks whose row i sees columns <= i only.
func softmaxRows(dst, x *tensor.Matrix, scale float64, causal bool) {
	tensor.SoftmaxRows(dst.Data, x.Data, x.Cols, scale, causal)
}

// SoftmaxBackwardRows computes the gradient through a row-wise softmax:
// given probabilities p and upstream gradient dp, the input gradient is
// ds_j = p_j (dp_j - Σ_k dp_k p_k) per row.
func SoftmaxBackwardRows(probs, grad *tensor.Matrix) *tensor.Matrix {
	out := tensor.Zeros(grad.Rows, grad.Cols)
	SoftmaxBackwardRowsInto(out, probs, grad)
	return out
}

// SoftmaxBackwardRowsInto writes the softmax gradient into dst (same shape,
// fully overwritten; dst may alias grad but not probs).
func SoftmaxBackwardRowsInto(dst, probs, grad *tensor.Matrix) {
	softmaxBackwardRows(dst, probs, grad, 1)
}

// softmaxBackwardRows is SoftmaxBackwardRowsInto times scale: the gradient
// with respect to x of softmax(scale*x), on tensor.SoftmaxBackwardRows.
func softmaxBackwardRows(dst, probs, grad *tensor.Matrix, scale float64) {
	tensor.SoftmaxBackwardRows(dst.Data, probs.Data, grad.Data, probs.Cols, scale)
}

// IgnoreIndex marks positions excluded from the loss (non-masked tokens in
// MLM, padding, etc.), mirroring PyTorch's ignore_index convention.
const IgnoreIndex = -1

// CrossEntropyInto computes the mean negative log-likelihood of targets
// under a row-wise softmax of logits, and writes the gradient of that mean
// loss with respect to the logits into grad (same shape as logits, fully
// overwritten; must not alias logits). Rows whose target is IgnoreIndex
// contribute nothing. The mean is taken over the contributing rows, as in
// BERT's MLM loss. It returns the loss and the number of rows that
// contributed; callers that only want the loss call CrossEntropyLoss.
func CrossEntropyInto(grad, logits *tensor.Matrix, targets []int) (float64, int) {
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: CrossEntropyInto got a %dx%d gradient buffer for %dx%d logits",
			grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	return crossEntropy(grad, logits, targets)
}

// CrossEntropyLoss returns CrossEntropyInto's loss and row count without
// forming the gradient: one exp per logit instead of two and no
// logits-sized buffer — for evaluation and for pipeline forwards, whose
// backward recomputes the head anyway.
func CrossEntropyLoss(logits *tensor.Matrix, targets []int) (float64, int) {
	return crossEntropy(nil, logits, targets)
}

// crossEntropy is the one loop behind both entry points; a nil grad skips
// the gradient pass. The loss arithmetic does not depend on grad, so both
// return the same bits. Both passes take their exps from
// tensor.ExpShift, like softmaxRows.
func crossEntropy(grad, logits *tensor.Matrix, targets []int) (float64, int) {
	if logits.Rows != len(targets) {
		panic(fmt.Sprintf("nn: CrossEntropy got %d logit rows for %d targets", logits.Rows, len(targets)))
	}
	var count int
	for _, t := range targets {
		if t != IgnoreIndex {
			count++
		}
	}
	if count == 0 {
		if grad != nil {
			grad.Zero()
		}
		return 0, 0
	}
	var loss float64
	invCount := 1 / float64(count)
	for i, t := range targets {
		if t == IgnoreIndex {
			if grad != nil {
				clear(grad.Row(i))
			}
			continue
		}
		if t < 0 || t >= logits.Cols {
			panic(fmt.Sprintf("nn: CrossEntropy target %d out of range [0,%d)", t, logits.Cols))
		}
		row := logits.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		// Σ exp(v - mx), summed in ascending order; the exps pass through a
		// stack buffer a chunk at a time, so the loss-only form needs no
		// row-sized one.
		var sum float64
		var exps [256]float64
		for lo := 0; lo < len(row); lo += len(exps) {
			chunk := row[lo:min(lo+len(exps), len(row))]
			tensor.ExpShift(exps[:], chunk, mx)
			for _, e := range exps[:len(chunk)] {
				sum += e
			}
		}
		logZ := mx + math.Log(sum)
		loss += logZ - row[t]
		if grad == nil {
			continue
		}
		grow := grad.Row(i)
		tensor.ExpShift(grow, row, logZ)
		for j := range grow {
			grow[j] *= invCount
		}
		grow[t] -= invCount
	}
	return loss * invCount, count
}
