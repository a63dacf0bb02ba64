// Package gpt implements a decoder-only causal language model in the style
// of the OPT models the paper's performance study covers (Table 3,
// Figures 15/16): token + position embeddings, causally-masked transformer
// blocks, a final layer norm, and a next-token prediction head. It shares
// the nn substrate with the BERT encoder, so K-FAC applies to its block
// layers unchanged — demonstrating that the PipeFisher machinery is
// architecture-agnostic across the families the paper evaluates.
package gpt

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Config sizes the decoder model.
type Config struct {
	VocabSize int
	DModel    int
	DFF       int
	Heads     int
	Blocks    int
	SeqLen    int
}

// TinyConfig returns a laptop-scale OPT-like configuration.
func TinyConfig() Config {
	return Config{VocabSize: 96, DModel: 32, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.VocabSize <= data.FirstWordID {
		return fmt.Errorf("gpt: vocab %d too small", c.VocabSize)
	}
	if c.DModel <= 0 || c.DFF <= 0 || c.Blocks <= 0 || c.SeqLen <= 1 {
		return fmt.Errorf("gpt: bad dimensions in %+v", c)
	}
	if c.Heads <= 0 || c.DModel%c.Heads != 0 {
		return fmt.Errorf("gpt: DModel %d not divisible by Heads %d", c.DModel, c.Heads)
	}
	return nil
}

// Model is the trainable decoder.
type Model struct {
	Config Config

	TokEmb    *nn.Embedding
	PosEmb    *nn.Embedding
	Blocks    []*nn.TransformerBlock
	FinalNorm *nn.LayerNorm
	LMHead    *nn.Dense // excluded from K-FAC, like BERT's MLM head

	posIDs     []int
	pipePosIDs []int // scratch for EmbedForward's micro-batch shape

	// Retained pipeline-adapter buffers (see pipeline.go), reused across
	// micro-batches: the token+position embedding sum and the LM head's
	// logits gradient.
	pipeEmbBuf  *tensor.Matrix
	pipeGradBuf *tensor.Matrix
}

// New builds a decoder model; every block's attention is causal.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	m := &Model{
		Config:    cfg,
		TokEmb:    nn.NewEmbedding("tok_emb", cfg.VocabSize, cfg.DModel, rng),
		PosEmb:    nn.NewEmbedding("pos_emb", cfg.SeqLen, cfg.DModel, rng),
		FinalNorm: nn.NewLayerNorm("final_norm", cfg.DModel),
		LMHead:    nn.NewDense("lm_head", cfg.DModel, cfg.VocabSize, rng),
	}
	for b := 0; b < cfg.Blocks; b++ {
		blk := nn.NewTransformerBlock(fmt.Sprintf("block%d", b), cfg.DModel, cfg.DFF, cfg.Heads, rng)
		blk.Attn.Causal = true
		m.Blocks = append(m.Blocks, blk)
	}
	return m, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, m.TokEmb.Params()...)
	out = append(out, m.PosEmb.Params()...)
	for _, b := range m.Blocks {
		out = append(out, b.Params()...)
	}
	out = append(out, m.FinalNorm.Params()...)
	out = append(out, m.LMHead.Params()...)
	return out
}

// KFACLayers returns the block layers eligible for K-FAC (heads excluded).
func (m *Model) KFACLayers() []*nn.Dense {
	var out []*nn.Dense
	for _, b := range m.Blocks {
		out = append(out, b.DenseLayers()...)
	}
	return out
}

// Step runs one forward+backward over a batch of token sequences (flattened
// batch-major, batchSize*SeqLen ids) with the next-token objective: the
// model predicts token t+1 at position t; the last position has no target.
// It returns the mean loss and the number of predicted positions.
func (m *Model) Step(tokens []int, batchSize int) (float64, int, error) {
	sl := m.Config.SeqLen
	if len(tokens) != batchSize*sl {
		return 0, 0, fmt.Errorf("gpt: got %d tokens, want %d", len(tokens), batchSize*sl)
	}
	x := m.forwardTrunk(tokens, batchSize)
	logits := m.LMHead.Forward(x)

	targets := nextTokenTargets(tokens, batchSize, sl)
	loss, grad, count := nn.CrossEntropy(logits, targets)

	dx := m.LMHead.Backward(grad)
	dx = m.FinalNorm.Backward(dx)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.Blocks[i].Backward(dx)
	}
	m.TokEmb.BackwardIDs(dx)
	m.PosEmb.BackwardIDs(dx)
	return loss, count, nil
}

// Perplexity evaluates forward-only mean next-token perplexity.
func (m *Model) Perplexity(tokens []int, batchSize int) (float64, error) {
	sl := m.Config.SeqLen
	if len(tokens) != batchSize*sl {
		return 0, fmt.Errorf("gpt: got %d tokens, want %d", len(tokens), batchSize*sl)
	}
	x := m.forwardTrunk(tokens, batchSize)
	logits := m.LMHead.Forward(x)
	loss, _ := nn.CrossEntropyLoss(logits, nextTokenTargets(tokens, batchSize, sl))
	return math.Exp(loss), nil
}

func (m *Model) forwardTrunk(tokens []int, batchSize int) *tensor.Matrix {
	sl := m.Config.SeqLen
	n := batchSize * sl
	if len(m.posIDs) != n {
		m.posIDs = make([]int, n)
		for i := range m.posIDs {
			m.posIDs[i] = i % sl
		}
	}
	tok := m.TokEmb.Lookup(tokens)
	pos := m.PosEmb.Lookup(m.posIDs)
	x := tok.Add(pos)
	for _, b := range m.Blocks {
		b.SetShape(batchSize, sl)
		x = b.Forward(x)
	}
	return m.FinalNorm.Forward(x)
}

// nextTokenTargets shifts tokens left by one within each sequence; the last
// position of each sequence gets IgnoreIndex.
func nextTokenTargets(tokens []int, batchSize, seqLen int) []int {
	targets := make([]int, len(tokens))
	for b := 0; b < batchSize; b++ {
		base := b * seqLen
		for t := 0; t < seqLen-1; t++ {
			targets[base+t] = tokens[base+t+1]
		}
		targets[base+seqLen-1] = nn.IgnoreIndex
	}
	return targets
}

// SampleBatch draws a batch of training sequences from the corpus.
func SampleBatch(c *data.Corpus, batchSize, seqLen int) []int {
	out := make([]int, 0, batchSize*seqLen)
	for i := 0; i < batchSize; i++ {
		out = append(out, c.Sentence(seqLen)...)
	}
	return out
}

// TrainConfig drives Pretrain.
type TrainConfig struct {
	// UseKFAC preconditions the block layers with K-FAC.
	UseKFAC bool
	// Steps, BatchSize and LR control the loop.
	Steps     int
	BatchSize int
	LR        float64
	// Damping and RefreshEvery configure K-FAC.
	Damping      float64
	RefreshEvery int
}

// Pretrain trains the decoder with Adam (optionally K-FAC-preconditioned)
// and returns the per-step losses.
func Pretrain(m *Model, c *data.Corpus, cfg TrainConfig) ([]float64, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 100
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 3e-3
	}
	if cfg.Damping == 0 {
		cfg.Damping = 1e-2
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = 2
	}
	params := m.Params()
	opt := optim.NewAdam(params, 0.01)
	var pre *kfac.Preconditioner
	if cfg.UseKFAC {
		pre = kfac.NewPreconditioner(m.KFACLayers(), kfac.Options{
			Damping: cfg.Damping, StatDecay: 0.95, UsePiDamping: true,
		})
	}
	losses := make([]float64, 0, cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		batch := SampleBatch(c, cfg.BatchSize, m.Config.SeqLen)
		nn.ZeroGrads(params)
		loss, count, err := m.Step(batch, cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		if pre != nil {
			if step%cfg.RefreshEvery == 0 {
				if err := pre.UpdateCurvature(float64(count)); err != nil {
					return nil, err
				}
				if err := pre.UpdateInverses(); err != nil {
					return nil, err
				}
			}
			pre.Precondition()
		}
		opt.Step(cfg.LR)
		losses = append(losses, loss)
	}
	return losses, nil
}
