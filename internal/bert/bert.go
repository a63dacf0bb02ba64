// Package bert assembles a trainable BERT-style masked-language model from
// the nn substrate: the model the paper's convergence comparison (Figure 7,
// NVLAMB versus K-FAC on the joint masked-LM + next-sentence-prediction
// objective) pretrains. It trains through the engine: its one forward and
// backward is the pipemodel.Model adapter in pipeline.go, which the engine
// runs at any stage count — cmd/pretrain runs it at one stage.
//
// The model here is a faithful but scaled-down BERT: token + position
// embeddings, post-LN encoder blocks, an MLM head over the vocabulary and
// an NSP head over the [CLS] representation. Like BERT's reference
// run_pretraining.py (gather_indexes over masked_lm_positions), the MLM
// head scores only the masked positions — about 15 % of the B·S rows —
// which gives bit for bit the loss and gradients of scoring them all.
// K-FAC applies to every fully-connected layer inside the blocks and not
// to the final classification heads, exactly as §4 prescribes.
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

	pipePosIDs []int // scratch for EmbedForward's micro-batch shape

	// Retained pipeline-adapter buffers (see pipeline.go): the summed
	// token+position embeddings, the gathered [CLS] rows and NSP labels, the
	// gathered masked rows with their positions and targets, the two heads'
	// logits gradients and the head's input gradient are reused across
	// micro-batches instead of being freshly allocated.
	pipeEmbBuf        *tensor.Matrix
	pipeClsBuf        *tensor.Matrix
	pipeNSPTargets    []int
	pipeMaskedBuf     *tensor.Matrix
	pipeMaskedPos     []int
	pipeMaskedTargets []int
	pipeMLMGradBuf    *tensor.Matrix
	pipeNSPGradBuf    *tensor.Matrix
	pipeDXBuf         *tensor.Matrix
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
