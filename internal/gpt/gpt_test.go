package gpt

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

func newModelAndCorpus(t *testing.T, seed uint64) (*Model, *data.Corpus) {
	t.Helper()
	m, err := New(TinyConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(TinyConfig().VocabSize, 1.0, seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{VocabSize: 2, DModel: 32, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16},
		{VocabSize: 96, DModel: 30, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16},
		{VocabSize: 96, DModel: 32, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 1); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestAllBlocksAreCausal(t *testing.T) {
	m, _ := newModelAndCorpus(t, 1)
	for i, b := range m.Blocks {
		if !b.Attn.Causal {
			t.Fatalf("block %d is not causal", i)
		}
	}
	// The engine preconditions the 6 layers of every block; the LM head is
	// excluded.
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	layers := e.StageLayers(0)
	for _, l := range layers {
		if l == m.LMHead {
			t.Fatal("LM head must be excluded from K-FAC")
		}
	}
	if len(layers) != 12 {
		t.Fatalf("expected 12 K-FAC layers, got %d", len(layers))
	}
}

// headLoss runs the adapter's forward — embedding, blocks, final norm and
// LM head — over a whole batch.
func headLoss(t *testing.T, m *Model, batch *data.Batch) pipemodel.Loss {
	t.Helper()
	x := m.EmbedForward(batch)
	for _, b := range m.PipelineBlocks() {
		b.SetShape(batch.BatchSize, batch.SeqLen)
		x = b.Forward(x)
	}
	loss, err := m.HeadLoss(batch, x, pipemodel.Totals{Tokens: m.BatchTokenCount(batch), Seqs: batch.BatchSize})
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// backward runs the adapter's forward and backward — embedding, blocks,
// head, and back through the blocks into the embedding tables — over a whole
// batch, accumulating every parameter's gradient of headLoss's Total.
func backward(t *testing.T, m *Model, batch *data.Batch) {
	t.Helper()
	blocks := m.PipelineBlocks()
	x := m.EmbedForward(batch)
	for _, b := range blocks {
		b.SetShape(batch.BatchSize, batch.SeqLen)
		x = b.Forward(x)
	}
	g, err := m.HeadGradient(batch, x, pipemodel.Totals{Tokens: m.BatchTokenCount(batch), Seqs: batch.BatchSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		g = blocks[i].Backward(g)
	}
	m.EmbedBackward(g)
}

// train trains m on batches of c through the engine at one stage — GPipe,
// one stage, one micro-batch — with Adam at 3e-3, and returns the per-step
// losses.
func train(t *testing.T, m *Model, c *data.Corpus, steps, batch int) []float64 {
	t.Helper()
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	adam := optim.NewAdam(m.Params(), 0.01)
	e.SetOptimizer(func(int) error {
		adam.Step(3e-3)
		return nil
	})
	losses := make([]float64, steps)
	for i := range losses {
		res, err := e.TrainStep(MakeBatch(c, batch, m.Config.SeqLen))
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = res.Loss.Total
	}
	return losses
}

func TestInitialHeadLossNearLogVocab(t *testing.T) {
	m, c := newModelAndCorpus(t, 2)
	loss := headLoss(t, m, MakeBatch(c, 8, m.Config.SeqLen))
	if loss.Tokens != 8*(m.Config.SeqLen-1) {
		t.Fatalf("predicted positions %d, want %d", loss.Tokens, 8*(m.Config.SeqLen-1))
	}
	if math.Abs(loss.Total-math.Log(float64(m.Config.VocabSize))) > 1.0 {
		t.Fatalf("initial loss %.3f far from log V", loss.Total)
	}
}

func TestHeadInputValidation(t *testing.T) {
	m, c := newModelAndCorpus(t, 3)
	batch := MakeBatch(c, 2, m.Config.SeqLen)
	batch.Targets = batch.Targets[:7]
	y := tensor.Zeros(2*m.Config.SeqLen, m.Config.DModel)
	if _, err := m.HeadLoss(batch, y, pipemodel.Totals{Tokens: 7, Seqs: 2}); err == nil {
		t.Fatal("expected error for a batch with the wrong number of targets")
	}
}

func TestNextTokenTargets(t *testing.T) {
	tokens := []int{10, 11, 12, 20, 21, 22}
	targets := nextTokenTargets(tokens, 2, 3)
	want := []int{11, 12, nn.IgnoreIndex, 21, 22, nn.IgnoreIndex}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("targets %v, want %v", targets, want)
		}
	}
}

func TestHeldOutLossImprovesWithTraining(t *testing.T) {
	m, c := newModelAndCorpus(t, 6)
	heldOut := MakeBatch(c, 16, m.Config.SeqLen)
	before := headLoss(t, m, heldOut).Total
	train(t, m, c, 80, 8)
	if after := headLoss(t, m, heldOut).Total; after >= before-0.3 {
		t.Fatalf("held-out loss did not improve: %.3f -> %.3f", before, after)
	}
}

// TestAdapterGradientMatchesFiniteDifferences checks the adapter's whole
// backward — head, causal blocks and embedding — against central
// differences of its forward loss, for a sample of entries of every
// parameter.
func TestAdapterGradientMatchesFiniteDifferences(t *testing.T) {
	m, c := newModelAndCorpus(t, 30)
	batch := MakeBatch(c, 2, m.Config.SeqLen)
	nn.ZeroGrads(m.Params())
	backward(t, m, batch)
	const eps = 1e-6
	for _, p := range m.Params() {
		for idx := 0; idx < len(p.Value.Data); idx += 1 + len(p.Value.Data)/7 {
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + eps
			up := headLoss(t, m, batch).Total
			p.Value.Data[idx] = orig - eps
			down := headLoss(t, m, batch).Total
			p.Value.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			if analytic := p.Grad.Data[idx]; math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, idx, analytic, numeric)
			}
		}
	}
}

func TestStepProducesFiniteLossAndGrads(t *testing.T) {
	m, c := newModelAndCorpus(t, 32)
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer hook sees the step's reduced gradients before any update.
	e.SetOptimizer(func(int) error {
		for _, p := range m.Params() {
			gn := nn.GradNorm([]*nn.Param{p})
			if gn <= 0 || math.IsNaN(gn) || math.IsInf(gn, 0) {
				t.Errorf("param %s: bad grad norm %g", p.Name, gn)
			}
		}
		return nil
	})
	res, err := e.TrainStep(MakeBatch(c, 4, m.Config.SeqLen))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Loss.Total) || res.Loss.Total <= 0 {
		t.Fatalf("bad loss %v", res.Loss)
	}
}

func TestStepValidation(t *testing.T) {
	m, c := newModelAndCorpus(t, 34)
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainStep(MakeBatch(c, 2, m.Config.SeqLen/2)); err == nil {
		t.Fatal("expected error for mismatched sequence length")
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() float64 {
		m, c := newModelAndCorpus(t, 20)
		return train(t, m, c, 10, 4)[9]
	}
	if run() != run() {
		t.Fatal("training must be bit-deterministic for fixed seeds")
	}
}
