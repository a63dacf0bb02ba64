// Package gpt implements a decoder-only causal language model in the style
// of the OPT models the paper's performance study covers (Table 3,
// Figures 15/16): token + position embeddings, causally-masked transformer
// blocks, a final layer norm, and a next-token prediction head. It shares
// the nn substrate with the BERT encoder, so K-FAC applies to its block
// layers unchanged — demonstrating that the PipeFisher machinery is
// architecture-agnostic across the families the paper evaluates. Like the
// encoder, it trains through the engine: its one forward and backward is
// the pipemodel.Model adapter in pipeline.go.
package gpt

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
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
