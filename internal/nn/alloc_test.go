package nn

import (
	"testing"

	"repro/internal/tensor"
)

// The kernels' pack buffers cycle through sync.Pool, which drops items at
// random under the race detector: allocation counts of anything that runs a
// GEMM mean nothing there.
func skipPooledAllocsUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
}

// The Dense hot path must not allocate in steady state: Forward/Backward
// write into retained buffers and the gradient accumulation is fused
// (TMatMulAddInto), so a micro-batch step costs zero heap churn once the
// buffers exist.
func TestDenseSteadyStateZeroAlloc(t *testing.T) {
	skipPooledAllocsUnderRace(t)
	for _, capture := range []bool{false, true} {
		name := "plain"
		if capture {
			name = "kfac-capture"
		}
		t.Run(name, func(t *testing.T) {
			rng := tensor.NewRNG(1)
			layer := NewDense("fc", 64, 64, rng)
			layer.CaptureKFAC = capture
			x := tensor.RandN(rng, 256, 64, 1)
			grad := tensor.RandN(rng, 256, 64, 1)
			// Warm up the retained buffers.
			layer.Forward(x)
			layer.Backward(grad)
			avg := testing.AllocsPerRun(50, func() {
				layer.Forward(x)
				layer.Backward(grad)
			})
			if avg > 0.5 {
				t.Fatalf("Dense Forward+Backward allocates %.1f times per step in steady state, want 0", avg)
			}
		})
	}
}

// A Dense whose row count changes from call to call — BERT's MLM head over
// each micro-batch's masked positions — keeps its output and input-gradient
// storage: shrinking, then regrowing within what the buffers once held,
// allocates nothing.
func TestDenseZeroAllocAcrossRowCounts(t *testing.T) {
	skipPooledAllocsUnderRace(t)
	rng := tensor.NewRNG(4)
	layer := NewDense("head", 64, 96, rng)
	var xs, grads []*tensor.Matrix
	for _, rows := range []int{256, 40, 200, 1, 0, 256, 97} {
		xs = append(xs, tensor.RandN(rng, rows, 64, 1))
		grads = append(grads, tensor.RandN(rng, rows, 96, 1))
	}
	step := func() {
		for i, x := range xs {
			y := layer.Forward(x)
			dx := layer.Backward(grads[i])
			if y.Rows != x.Rows || dx.Rows != x.Rows {
				t.Fatalf("rows %d: output %d, input gradient %d", x.Rows, y.Rows, dx.Rows)
			}
		}
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg > 0 {
		t.Fatalf("Dense Forward+Backward over alternating row counts allocates %.1f times per pass, want 0", avg)
	}
}

// The same property under parallel kernels: chunk dispatch through the
// shared worker pool must not allocate either.
func TestDenseZeroAllocWithParallelKernels(t *testing.T) {
	skipPooledAllocsUnderRace(t)
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(4)
	rng := tensor.NewRNG(2)
	layer := NewDense("fc", 64, 64, rng)
	x := tensor.RandN(rng, 256, 64, 1)
	grad := tensor.RandN(rng, 256, 64, 1)
	layer.Forward(x)
	layer.Backward(grad)
	avg := testing.AllocsPerRun(50, func() {
		layer.Forward(x)
		layer.Backward(grad)
	})
	if avg > 0.5 {
		t.Fatalf("parallel Dense Forward+Backward allocates %.1f times per step, want 0", avg)
	}
}

// A full transformer block also runs allocation-free in steady state: the
// attention scratch, layer norms, GELU and residual sums all reuse
// retained buffers.
func TestTransformerBlockSteadyStateZeroAlloc(t *testing.T) {
	skipPooledAllocsUnderRace(t)
	rng := tensor.NewRNG(3)
	blk := NewTransformerBlock("block", 64, 128, 4, rng)
	blk.SetShape(8, 32)
	x := tensor.RandN(rng, 8*32, 64, 1)
	grad := tensor.RandN(rng, 8*32, 64, 1)
	blk.Forward(x)
	blk.Backward(grad)
	avg := testing.AllocsPerRun(20, func() {
		blk.Forward(x)
		blk.Backward(grad)
	})
	if avg > 0.5 {
		t.Fatalf("TransformerBlock Forward+Backward allocates %.1f times per step in steady state, want 0", avg)
	}
}

// The heads' cross-entropy forms leave no garbage: the loss-only path forms
// no gradient at all and the into-buffer path writes a retained one.
func TestCrossEntropySteadyStateZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(4)
	logits := tensor.RandN(rng, 128, 96, 1)
	grad := tensor.Zeros(128, 96)
	targets := make([]int, 128)
	for i := range targets {
		targets[i] = IgnoreIndex
		if i%4 == 0 {
			targets[i] = rng.Intn(96)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		CrossEntropyLoss(logits, targets)
		CrossEntropyInto(grad, logits, targets)
	})
	if avg > 0 {
		t.Fatalf("CrossEntropyLoss + CrossEntropyInto allocate %.1f times per call, want 0", avg)
	}
}
