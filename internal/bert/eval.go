package bert

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

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

// Evaluate runs a forward-only pass and computes accuracy metrics. It does
// not touch gradients.
func (m *Model) Evaluate(batch *data.Batch) (*EvalResult, error) {
	if batch.SeqLen != m.Config.SeqLen {
		return nil, fmt.Errorf("bert: batch seq len %d != model %d", batch.SeqLen, m.Config.SeqLen)
	}
	bs, sl := batch.BatchSize, batch.SeqLen
	n := bs * sl
	posIDs := make([]int, n)
	for i := range posIDs {
		posIDs[i] = i % sl
	}
	tok := m.TokEmb.Lookup(batch.Tokens)
	pos := m.PosEmb.Lookup(posIDs)
	x := m.EmbNorm.Forward(tok.Add(pos))
	for _, b := range m.Blocks {
		b.SetShape(bs, sl)
		x = b.Forward(x)
	}
	mlmLogits := m.MLMHead.Forward(x)
	mlmLoss, masked := nn.CrossEntropyLoss(mlmLogits, batch.Targets)

	var mlmCorrect int
	for i, tgt := range batch.Targets {
		if tgt < 0 {
			continue
		}
		if argmaxRow(mlmLogits, i) == tgt {
			mlmCorrect++
		}
	}

	cls := tensor.Zeros(bs, m.Config.DModel)
	for i := 0; i < bs; i++ {
		copy(cls.Row(i), x.Row(i*sl))
	}
	nspLogits := m.NSPHead.Forward(cls)
	nspTargets := make([]int, bs)
	var nspCorrect int
	for i, isNext := range batch.IsNext {
		if isNext {
			nspTargets[i] = 1
		}
		if argmaxRow(nspLogits, i) == nspTargets[i] {
			nspCorrect++
		}
	}
	nspLoss, _ := nn.CrossEntropyLoss(nspLogits, nspTargets)

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
