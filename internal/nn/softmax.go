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

// softmaxRows writes softmax(scale*x) row by row into dst (dst may alias
// x) — attention's fused scale + mask + max + exp + normalise pass. With
// causal, x is a stack of square Cols x Cols score blocks: row i of a block
// sees columns <= i only and the rest get probability exactly 0, as if
// their scores were -Inf. The exps are tensor.ExpShift's (math.Exp itself
// under the scalar and tiled kernels, within 2 ULP of it under fma); the
// row sum is an ascending scalar sum under every kernel.
func softmaxRows(dst, x *tensor.Matrix, scale float64, causal bool) {
	for i := 0; i < x.Rows; i++ {
		n := x.Cols
		if causal {
			n = i%x.Cols + 1
		}
		row := x.Row(i)[:n]
		orow := dst.Row(i)
		clear(orow[n:])
		orow = orow[:n]
		mx := math.Inf(-1)
		for j, v := range row {
			v *= scale
			orow[j] = v
			if v > mx {
				mx = v
			}
		}
		tensor.ExpShift(orow, orow, mx)
		var sum float64
		for _, e := range orow {
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
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
// with respect to x of softmax(scale*x).
func softmaxBackwardRows(dst, probs, grad *tensor.Matrix, scale float64) {
	for i := 0; i < grad.Rows; i++ {
		prow := probs.Row(i)
		grow := grad.Row(i)[:len(prow)]
		orow := dst.Row(i)[:len(prow)]
		var dot float64
		for j, p := range prow {
			dot += p * grow[j]
		}
		for j, p := range prow {
			orow[j] = p * (grow[j] - dot) * scale
		}
	}
}

// IgnoreIndex marks positions excluded from the loss (non-masked tokens in
// MLM, padding, etc.), mirroring PyTorch's ignore_index convention.
const IgnoreIndex = -1

// CrossEntropy computes the mean negative log-likelihood of targets under a
// row-wise softmax of logits, and the gradient of that mean loss with
// respect to the logits. Rows whose target is IgnoreIndex contribute
// nothing. The mean is taken over the contributing rows, as in BERT's MLM
// loss. It returns the loss, the logits gradient, and the number of rows
// that contributed. The gradient is freshly allocated; hot paths keep a
// buffer and call CrossEntropyInto, and callers that only want the loss
// call CrossEntropyLoss.
func CrossEntropy(logits *tensor.Matrix, targets []int) (float64, *tensor.Matrix, int) {
	grad := tensor.Zeros(logits.Rows, logits.Cols)
	loss, count := CrossEntropyInto(grad, logits, targets)
	return loss, grad, count
}

// CrossEntropyInto is CrossEntropy with the logits gradient written into
// grad (same shape as logits, fully overwritten; must not alias logits).
func CrossEntropyInto(grad, logits *tensor.Matrix, targets []int) (float64, int) {
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: CrossEntropyInto got a %dx%d gradient buffer for %dx%d logits",
			grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	return crossEntropy(grad, logits, targets)
}

// CrossEntropyLoss returns CrossEntropy's loss and row count without
// forming the gradient: one exp per logit instead of two and no
// logits-sized buffer — for evaluation and for pipeline forwards, whose
// backward recomputes the head anyway.
func CrossEntropyLoss(logits *tensor.Matrix, targets []int) (float64, int) {
	return crossEntropy(nil, logits, targets)
}

// crossEntropy is the one loop behind the three entry points; a nil grad
// skips the gradient pass. The loss arithmetic does not depend on grad, so
// all three return the same bits. Both passes take their exps from
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
