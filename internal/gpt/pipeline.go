package gpt

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// The decoder is stageable through the same engine as BERT: embedding on
// stage 0, causally-masked blocks partitioned into stages, and the final
// layer norm + LM head + next-token loss on the last stage.
var _ pipemodel.Model = (*Model)(nil)

// MakeBatch draws a batch of training sequences from the corpus in the
// engine's batch currency: Tokens holds the flattened sequences, Targets
// the next-token labels (IgnoreIndex at each sequence's last position), and
// IsNext is unused padding so data.Batch splitting applies uniformly.
func MakeBatch(c *data.Corpus, batchSize, seqLen int) *data.Batch {
	tokens := SampleBatch(c, batchSize, seqLen)
	return &data.Batch{
		BatchSize: batchSize,
		SeqLen:    seqLen,
		Tokens:    tokens,
		Targets:   nextTokenTargets(tokens, batchSize, seqLen),
		IsNext:    make([]bool, batchSize),
	}
}

// PipelineBlocks returns the decoder blocks the engine partitions.
func (m *Model) PipelineBlocks() []*nn.TransformerBlock { return m.Blocks }

// SeqLen returns the model's fixed sequence length.
func (m *Model) SeqLen() int { return m.Config.SeqLen }

// EmbedForward runs the stage-0 path: token + position embeddings summed in
// a retained buffer (the decoder has no embedding norm; the final norm
// lives in the head). The returned matrix is owned by the model and valid
// until the next EmbedForward; the engine hands the blocks a pooled copy and
// re-runs the embedding before each micro-batch's backward.
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
	return m.pipeEmbBuf
}

// EmbedBackward backpropagates into the embedding tables from the caches of
// the immediately preceding EmbedForward.
func (m *Model) EmbedBackward(grad *tensor.Matrix) {
	m.TokEmb.BackwardIDs(grad)
	m.PosEmb.BackwardIDs(grad)
}

// BatchTokenCount returns the number of predicted positions.
func (m *Model) BatchTokenCount(mb *data.Batch) int {
	var n int
	for _, t := range mb.Targets {
		if t != nn.IgnoreIndex {
			n++
		}
	}
	return n
}

// KFACLossScale is the next-token loss's averaging count.
func (m *Model) KFACLossScale(t pipemodel.Totals) float64 { return float64(t.Tokens) }

// EmbedParams returns the stage-0 embedding-path parameters (token and
// position tables; the decoder has no embedding norm).
func (m *Model) EmbedParams() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.TokEmb.Params()...)
	out = append(out, m.PosEmb.Params()...)
	return out
}

// HeadParams returns the last-stage head parameters (final norm and LM
// head).
func (m *Model) HeadParams() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.FinalNorm.Params()...)
	out = append(out, m.LMHead.Params()...)
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

// HeadLoss evaluates the final norm, LM head and next-token loss, weighted
// by the micro-batch's share of predicted positions.
func (m *Model) HeadLoss(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (pipemodel.Loss, error) {
	if err := m.checkHeadInput(mb, y, t); err != nil {
		return pipemodel.Loss{}, err
	}
	logits := m.LMHead.Forward(m.FinalNorm.Forward(y))
	loss, count := nn.CrossEntropyLoss(logits, mb.Targets)
	var lm float64
	if t.Tokens > 0 {
		lm = loss * float64(count) / float64(t.Tokens)
	}
	return pipemodel.Loss{
		Total:      lm,
		Components: map[string]float64{"lm": lm},
		Tokens:     count,
	}, nil
}

// HeadGradient computes the globally-scaled next-token loss gradient w.r.t.
// the last block's output, accumulating head gradients as a side effect.
func (m *Model) HeadGradient(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) (*tensor.Matrix, error) {
	if err := m.checkHeadInput(mb, y, t); err != nil {
		return nil, err
	}
	logits := m.LMHead.Forward(m.FinalNorm.Forward(y))
	grad := tensor.Reuse(m.pipeGradBuf, logits.Rows, logits.Cols)
	m.pipeGradBuf = grad
	_, count := nn.CrossEntropyInto(grad, logits, mb.Targets)
	if t.Tokens > 0 && count > 0 {
		grad.ScaleInPlace(float64(count) / float64(t.Tokens))
	}
	return m.FinalNorm.Backward(m.LMHead.Backward(grad)), nil
}

func (m *Model) checkHeadInput(mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) error {
	if y == nil {
		return fmt.Errorf("gpt: nil head input")
	}
	if y.Rows != mb.BatchSize*mb.SeqLen || y.Cols != m.Config.DModel {
		return fmt.Errorf("gpt: head input %dx%d, want %dx%d",
			y.Rows, y.Cols, mb.BatchSize*mb.SeqLen, m.Config.DModel)
	}
	if len(mb.Targets) != mb.BatchSize*mb.SeqLen {
		return fmt.Errorf("gpt: batch has %d targets, want %d (use gpt.MakeBatch)",
			len(mb.Targets), mb.BatchSize*mb.SeqLen)
	}
	return nil
}
