package bert

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// The model is stageable: the engine partitions Blocks into stages, keeps
// the embedding on stage 0 and the MLM/NSP heads on the last stage.
var _ pipemodel.Model = (*Model)(nil)

// PipelineBlocks returns the encoder blocks the engine partitions.
func (m *Model) PipelineBlocks() []*nn.TransformerBlock { return m.Blocks }

// SeqLen returns the model's fixed sequence length.
func (m *Model) SeqLen() int { return m.Config.SeqLen }

// EmbedForward runs the stage-0 path for a micro-batch: token + position
// embeddings (summed in a retained buffer, no per-micro-batch allocation)
// followed by the embedding LayerNorm. The returned matrix is owned by the
// model and valid until the next EmbedForward; the engine hands the blocks a
// pooled copy and re-runs the embedding before the micro-batch's backward.
func (m *Model) EmbedForward(mb *data.Batch) *tensor.Matrix {
	n := mb.BatchSize * mb.SeqLen
	if len(m.pipePosIDs) != n {
		m.pipePosIDs = make([]int, n)
		for i := range m.pipePosIDs {
			m.pipePosIDs[i] = i % mb.SeqLen
		}
	}
	m.pipeEmbBuf = tensor.Reuse(m.pipeEmbBuf, n, m.Config.DModel)
	m.TokEmb.LookupInto(m.pipeEmbBuf, mb.Tokens)
	m.PosEmb.LookupAddInto(m.pipeEmbBuf, m.pipePosIDs)
	return m.EmbNorm.Forward(m.pipeEmbBuf)
}

// EmbedBackward backpropagates into the embedding tables from the caches of
// the immediately preceding EmbedForward.
func (m *Model) EmbedBackward(grad *tensor.Matrix) {
	dEmb := m.EmbNorm.Backward(grad)
	m.TokEmb.BackwardIDs(dEmb)
	m.PosEmb.BackwardIDs(dEmb)
}

// BatchTokenCount returns the number of masked (loss-bearing) positions.
func (m *Model) BatchTokenCount(mb *data.Batch) int { return mb.MaskedCount() }

// EmbedParams returns the stage-0 embedding-path parameters (token and
// position tables plus the embedding LayerNorm).
func (m *Model) EmbedParams() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.TokEmb.Params()...)
	out = append(out, m.PosEmb.Params()...)
	out = append(out, m.EmbNorm.Params()...)
	return out
}

// HeadParams returns the last-stage head parameters (MLM and NSP heads).
func (m *Model) HeadParams() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.MLMHead.Params()...)
	out = append(out, m.NSPHead.Params()...)
	return out
}

// Replicate builds an independent copy of the model with the same
// configuration and parameter values — the per-replica weights of a
// data-parallel group.
func (m *Model) Replicate() (pipemodel.Model, error) {
	r, err := New(m.Config, 1)
	if err != nil {
		return nil, err
	}
	if err := nn.CopyParams(r.Params(), m.Params()); err != nil {
		return nil, err
	}
	return r, nil
}

// KFACLossScale is the averaging count the K-FAC B factors rescale by: both
// objectives contribute to the captured error signals, so it combines the
// MLM denominator (masked tokens) with the NSP denominator (sequences).
func (m *Model) KFACLossScale(t pipemodel.Totals) float64 {
	return float64(t.Tokens + t.Seqs)
}

// HeadLoss evaluates the MLM and NSP losses of one micro-batch with the same
// weighting a full-batch step uses: MLM weighted by the micro-batch's share
// of masked positions, NSP by its share of sequences. The MLM head scores
// the masked positions only (maskedRows).
func (m *Model) HeadLoss(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (pipemodel.Loss, error) {
	if err := m.checkHeadInput(mb, y, t); err != nil {
		return pipemodel.Loss{}, err
	}
	x, targets := m.maskedRows(y, mb.Targets)
	mlmLoss, masked := nn.CrossEntropyLoss(m.MLMHead.Forward(x), targets)
	cls := m.clsRows(y, mb.BatchSize, mb.SeqLen)
	nspLogits := m.NSPHead.Forward(cls)
	nspLoss, _ := nn.CrossEntropyLoss(nspLogits, m.nspTargets(mb))

	var mlm float64
	if t.Tokens > 0 {
		mlm = mlmLoss * float64(masked) / float64(t.Tokens)
	}
	nsp := nspLoss * float64(mb.BatchSize) / float64(t.Seqs)
	return pipemodel.Loss{
		Total:      mlm + nsp,
		Components: map[string]float64{"mlm": mlm, "nsp": nsp},
		Tokens:     masked,
	}, nil
}

// HeadGradient computes the globally-scaled loss gradient w.r.t. the last
// stage's block output: micro-batch CE gradients are means over local
// counts, so rescaling by local/global count reproduces the full-batch mean
// exactly. Head-parameter gradients accumulate as a side effect. The MLM
// head runs on the masked rows only, and their input gradients scatter
// back into a zeroed (B·S) x d buffer, owned by the model and valid until
// the next HeadGradient.
func (m *Model) HeadGradient(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (*tensor.Matrix, error) {
	if err := m.checkHeadInput(mb, y, t); err != nil {
		return nil, err
	}
	x, targets := m.maskedRows(y, mb.Targets)
	mlmLogits := m.MLMHead.Forward(x)
	mlmGrad := tensor.ReuseRows(m.pipeMLMGradBuf, mlmLogits.Rows, mlmLogits.Cols)
	m.pipeMLMGradBuf = mlmGrad
	_, masked := nn.CrossEntropyInto(mlmGrad, mlmLogits, targets)
	if t.Tokens > 0 && masked > 0 {
		mlmGrad.ScaleInPlace(float64(masked) / float64(t.Tokens))
	}
	dMasked := m.MLMHead.Backward(mlmGrad)
	dx := tensor.Reuse(m.pipeDXBuf, y.Rows, y.Cols)
	m.pipeDXBuf = dx
	dx.Zero()
	for r, i := range m.pipeMaskedPos {
		copy(dx.Row(i), dMasked.Row(r))
	}

	cls := m.clsRows(y, mb.BatchSize, mb.SeqLen)
	nspLogits := m.NSPHead.Forward(cls)
	nspGrad := tensor.Reuse(m.pipeNSPGradBuf, nspLogits.Rows, nspLogits.Cols)
	m.pipeNSPGradBuf = nspGrad
	nn.CrossEntropyInto(nspGrad, nspLogits, m.nspTargets(mb))
	nspGrad.ScaleInPlace(float64(mb.BatchSize) / float64(t.Seqs))
	dCls := m.NSPHead.Backward(nspGrad)
	for i := 0; i < mb.BatchSize; i++ {
		row := dx.Row(i * mb.SeqLen)
		add := dCls.Row(i)
		for j := range row {
			row[j] += add[j]
		}
	}
	return dx, nil
}

func (m *Model) checkHeadInput(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) error {
	if y == nil {
		return fmt.Errorf("bert: nil head input")
	}
	if y.Rows != mb.BatchSize*mb.SeqLen || y.Cols != m.Config.DModel {
		return fmt.Errorf("bert: head input %dx%d, want %dx%d",
			y.Rows, y.Cols, mb.BatchSize*mb.SeqLen, m.Config.DModel)
	}
	if t.Seqs <= 0 {
		return fmt.Errorf("bert: non-positive sequence total %d", t.Seqs)
	}
	return nil
}

// clsRows gathers the [CLS] (first) row of each sequence into a retained
// buffer (valid until the next call).
func (m *Model) clsRows(y *tensor.Matrix, batch, seqLen int) *tensor.Matrix {
	cls := tensor.Reuse(m.pipeClsBuf, batch, m.Config.DModel)
	m.pipeClsBuf = cls
	for i := 0; i < batch; i++ {
		copy(cls.Row(i), y.Row(i*seqLen))
	}
	return cls
}

// maskedRows gathers the rows of y at the loss-bearing positions (target
// not nn.IgnoreIndex), in ascending position order, with their targets: the
// MLM head's input, BERT's gather_indexes over masked_lm_positions. Scoring
// only these rows is bit-identical to scoring all B·S: each logit is the
// same ascending-k chain whatever rows share its product, cross-entropy
// visits the same rows in the same order, and an unmasked row's zero
// gradient only ever added +0 to the head's weight and bias gradients and
// left +0 in its own input gradient. All three results are retained
// buffers, valid until the next call.
func (m *Model) maskedRows(y *tensor.Matrix, targets []int) (*tensor.Matrix, []int) {
	m.pipeMaskedPos, m.pipeMaskedTargets = m.pipeMaskedPos[:0], m.pipeMaskedTargets[:0]
	for i, tgt := range targets {
		if tgt != nn.IgnoreIndex {
			m.pipeMaskedPos = append(m.pipeMaskedPos, i)
			m.pipeMaskedTargets = append(m.pipeMaskedTargets, tgt)
		}
	}
	x := tensor.ReuseRows(m.pipeMaskedBuf, len(m.pipeMaskedPos), y.Cols)
	m.pipeMaskedBuf = x
	for r, i := range m.pipeMaskedPos {
		copy(x.Row(r), y.Row(i))
	}
	return x, m.pipeMaskedTargets
}

// nspTargets writes the micro-batch's next-sentence labels into a retained
// buffer (valid until the next call).
func (m *Model) nspTargets(mb *data.Batch) []int {
	out := m.pipeNSPTargets[:0]
	for _, isNext := range mb.IsNext {
		label := 0
		if isNext {
			label = 1
		}
		out = append(out, label)
	}
	m.pipeNSPTargets = out
	return out
}
