package bert

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LossBreakdown carries the components of one evaluation.
type LossBreakdown struct {
	// Total = MLM + NSP (the paper's Phase-1 objective).
	Total float64
	// MLM is the masked-LM loss; MaskedCount its averaging denominator.
	MLM         float64
	MaskedCount int
	// NSP is the next-sentence loss over the batch.
	NSP float64
}

// EvalResult summarizes forward-only evaluation on a batch.
type EvalResult struct {
	// Loss components as in training.
	Loss LossBreakdown
	// MLMAccuracy is the fraction of masked positions predicted exactly.
	MLMAccuracy float64
	// MLMPerplexity is exp(MLM loss).
	MLMPerplexity float64
	// NSPAccuracy is the next-sentence classification accuracy.
	NSPAccuracy float64
}

// Evaluate runs a forward-only pass through the pipeline adapter's
// embedding, blocks and heads — the MLM head on the masked rows, as in
// training — and computes accuracy metrics. It does not touch gradients.
func (m *Model) Evaluate(batch *data.Batch) (*EvalResult, error) {
	if batch.SeqLen != m.Config.SeqLen {
		return nil, fmt.Errorf("bert: batch seq len %d != model %d", batch.SeqLen, m.Config.SeqLen)
	}
	bs, sl := batch.BatchSize, batch.SeqLen
	x := m.EmbedForward(batch)
	for _, b := range m.PipelineBlocks() {
		b.SetShape(bs, sl)
		x = b.Forward(x)
	}
	xm, mlmTargets := m.maskedRows(x, batch.Targets)
	mlmLogits := m.MLMHead.Forward(xm)
	mlmLoss, masked := nn.CrossEntropyLoss(mlmLogits, mlmTargets)

	var mlmCorrect int
	for r, tgt := range mlmTargets {
		if argmaxRow(mlmLogits, r) == tgt {
			mlmCorrect++
		}
	}

	nspLogits := m.NSPHead.Forward(m.clsRows(x, bs, sl))
	targets := m.nspTargets(batch)
	var nspCorrect int
	for i, tgt := range targets {
		if argmaxRow(nspLogits, i) == tgt {
			nspCorrect++
		}
	}
	nspLoss, _ := nn.CrossEntropyLoss(nspLogits, targets)

	res := &EvalResult{
		Loss: LossBreakdown{
			Total: mlmLoss + nspLoss, MLM: mlmLoss, NSP: nspLoss, MaskedCount: masked,
		},
		MLMPerplexity: math.Exp(mlmLoss),
		NSPAccuracy:   float64(nspCorrect) / float64(bs),
	}
	if masked > 0 {
		res.MLMAccuracy = float64(mlmCorrect) / float64(masked)
	}
	return res, nil
}

func argmaxRow(m *tensor.Matrix, row int) int {
	r := m.Row(row)
	best, bestV := 0, r[0]
	for j, v := range r {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}
