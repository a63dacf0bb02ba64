// Package bert assembles a trainable BERT-style masked-language model from
// the nn substrate and provides the pretraining loop used to reproduce the
// paper's convergence comparison (Figure 7): NVLAMB versus K-FAC on the
// joint masked-LM + next-sentence-prediction objective.
//
// The model here is a faithful but scaled-down BERT: token + position
// embeddings, post-LN encoder blocks, an MLM head over the vocabulary and
// an NSP head over the [CLS] representation. K-FAC applies to every
// fully-connected layer inside the blocks and not to the final
// classification heads, exactly as §4 prescribes.
package bert

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config sizes the model.
type Config struct {
	VocabSize int
	DModel    int
	DFF       int
	Heads     int
	Blocks    int
	SeqLen    int
}

// TinyConfig returns a laptop-scale configuration used by the convergence
// experiments and examples.
func TinyConfig() Config {
	return Config{VocabSize: 96, DModel: 32, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.VocabSize <= data.FirstWordID {
		return fmt.Errorf("bert: vocab %d too small", c.VocabSize)
	}
	if c.DModel <= 0 || c.DFF <= 0 || c.Blocks <= 0 || c.SeqLen <= 0 {
		return fmt.Errorf("bert: non-positive dimension in %+v", c)
	}
	if c.Heads <= 0 || c.DModel%c.Heads != 0 {
		return fmt.Errorf("bert: DModel %d not divisible by Heads %d", c.DModel, c.Heads)
	}
	return nil
}

// Model is the trainable network.
type Model struct {
	Config Config

	TokEmb  *nn.Embedding
	PosEmb  *nn.Embedding
	EmbNorm *nn.LayerNorm
	Blocks  []*nn.TransformerBlock
	MLMHead *nn.Dense // d -> vocab; excluded from K-FAC (§4)
	NSPHead *nn.Dense // d -> 2 on [CLS]

	posIDs     []int // scratch: position ids for the current batch shape
	pipePosIDs []int // scratch for EmbedForward's micro-batch shape

	// Retained pipeline-adapter buffers (see pipeline.go): the summed
	// token+position embeddings, the gathered [CLS] rows and the two heads'
	// logits gradients are reused across micro-batches instead of being
	// freshly allocated.
	pipeEmbBuf     *tensor.Matrix
	pipeClsBuf     *tensor.Matrix
	pipeMLMGradBuf *tensor.Matrix
	pipeNSPGradBuf *tensor.Matrix
}

// New builds a model with the given configuration and seed.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	m := &Model{
		Config:  cfg,
		TokEmb:  nn.NewEmbedding("tok_emb", cfg.VocabSize, cfg.DModel, rng),
		PosEmb:  nn.NewEmbedding("pos_emb", cfg.SeqLen, cfg.DModel, rng),
		EmbNorm: nn.NewLayerNorm("emb_norm", cfg.DModel),
		MLMHead: nn.NewDense("mlm_head", cfg.DModel, cfg.VocabSize, rng),
		NSPHead: nn.NewDense("nsp_head", cfg.DModel, 2, rng),
	}
	for b := 0; b < cfg.Blocks; b++ {
		m.Blocks = append(m.Blocks, nn.NewTransformerBlock(fmt.Sprintf("block%d", b), cfg.DModel, cfg.DFF, cfg.Heads, rng))
	}
	return m, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.TokEmb.Params()...)
	out = append(out, m.PosEmb.Params()...)
	out = append(out, m.EmbNorm.Params()...)
	for _, b := range m.Blocks {
		out = append(out, b.Params()...)
	}
	out = append(out, m.MLMHead.Params()...)
	out = append(out, m.NSPHead.Params()...)
	return out
}

// KFACLayers returns the fully-connected layers K-FAC preconditions: the
// six layers of every block, excluding the classification heads.
func (m *Model) KFACLayers() []*nn.Dense {
	var out []*nn.Dense
	for _, b := range m.Blocks {
		out = append(out, b.DenseLayers()...)
	}
	return out
}

// LossBreakdown carries the components of one forward/backward pass.
type LossBreakdown struct {
	// Total = MLM + NSP (the paper's Phase-1 objective).
	Total float64
	// MLM is the masked-LM loss; MaskedCount its averaging denominator.
	MLM         float64
	MaskedCount int
	// NSP is the next-sentence loss over the batch.
	NSP float64
}

// Step runs one forward+backward over the batch, accumulating gradients
// into the model parameters. Callers zero gradients, then invoke Step, then
// apply an optimizer.
func (m *Model) Step(batch *data.Batch) (LossBreakdown, error) {
	if batch.SeqLen != m.Config.SeqLen {
		return LossBreakdown{}, fmt.Errorf("bert: batch seq len %d != model %d", batch.SeqLen, m.Config.SeqLen)
	}
	bs, sl := batch.BatchSize, batch.SeqLen
	n := bs * sl
	if len(batch.Tokens) != n {
		return LossBreakdown{}, fmt.Errorf("bert: batch has %d tokens, want %d", len(batch.Tokens), n)
	}

	// Embedding: token + position, then LayerNorm.
	if len(m.posIDs) != n {
		m.posIDs = make([]int, n)
		for i := 0; i < n; i++ {
			m.posIDs[i] = i % sl
		}
	}
	tok := m.TokEmb.Lookup(batch.Tokens)
	pos := m.PosEmb.Lookup(m.posIDs)
	x := m.EmbNorm.Forward(tok.Add(pos))

	for _, b := range m.Blocks {
		b.SetShape(bs, sl)
		x = b.Forward(x)
	}

	// MLM loss over all positions (ignored where target = -1).
	mlmLogits := m.MLMHead.Forward(x)
	mlmLoss, mlmGrad, maskedCount := nn.CrossEntropy(mlmLogits, batch.Targets)

	// NSP loss on the [CLS] rows.
	cls := tensor.Zeros(bs, m.Config.DModel)
	for i := 0; i < bs; i++ {
		copy(cls.Row(i), x.Row(i*sl))
	}
	nspLogits := m.NSPHead.Forward(cls)
	nspTargets := make([]int, bs)
	for i, isNext := range batch.IsNext {
		if isNext {
			nspTargets[i] = 1
		}
	}
	nspLoss, nspGrad, _ := nn.CrossEntropy(nspLogits, nspTargets)

	// Backward: both heads contribute to dX.
	dx := m.MLMHead.Backward(mlmGrad)
	dCls := m.NSPHead.Backward(nspGrad)
	for i := 0; i < bs; i++ {
		row := dx.Row(i * sl)
		add := dCls.Row(i)
		for j := range row {
			row[j] += add[j]
		}
	}
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.Blocks[i].Backward(dx)
	}
	dEmb := m.EmbNorm.Backward(dx)
	m.TokEmb.BackwardIDs(dEmb)
	m.PosEmb.BackwardIDs(dEmb)

	return LossBreakdown{
		Total:       mlmLoss + nspLoss,
		MLM:         mlmLoss,
		MaskedCount: maskedCount,
		NSP:         nspLoss,
	}, nil
}
