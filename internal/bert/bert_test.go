package bert

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

func tinyModel(t *testing.T, seed uint64) *Model {
	t.Helper()
	m, err := New(TinyConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyCorpus(t *testing.T, seed uint64) *data.Corpus {
	t.Helper()
	c, err := data.NewCorpus(TinyConfig().VocabSize, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{VocabSize: 2, DModel: 32, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16},
		{VocabSize: 96, DModel: 0, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16},
		{VocabSize: 96, DModel: 30, DFF: 64, Heads: 4, Blocks: 2, SeqLen: 16},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 1); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestModelStructure(t *testing.T) {
	m := tinyModel(t, 1)
	if len(m.Blocks) != 2 {
		t.Fatalf("expected 2 blocks, got %d", len(m.Blocks))
	}
	// The engine preconditions the 6 layers of every block; the heads are
	// excluded (§4).
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	layers := e.StageLayers(0)
	if len(layers) != 12 {
		t.Fatalf("expected 12 K-FAC layers, got %d", len(layers))
	}
	for _, l := range layers {
		if l == m.MLMHead || l == m.NSPHead {
			t.Fatal("classification heads must be excluded from K-FAC (§4)")
		}
	}
	if nn.NumParameters(m.Params()) < 10000 {
		t.Fatalf("model suspiciously small: %d params", nn.NumParameters(m.Params()))
	}
}

// pretrain trains m on batches of c through the engine at one stage — GPipe,
// one stage, one micro-batch — with LAMB over the paper's poly-decay
// schedule, its warm-up scaled to steps, and returns the per-step losses and
// the engine. refreshEvery > 0 enables K-FAC at that refresh cadence (with
// the K-FAC schedule's warm-up); 0 trains the NVLAMB arm.
func pretrain(t *testing.T, m *Model, c *data.Corpus, steps, batch, refreshEvery int) ([]float64, *engine.Engine) {
	t.Helper()
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	paper := optim.NewNVLAMBSchedule()
	if refreshEvery > 0 {
		if err := e.EnableKFAC(kfac.DefaultOptions(), refreshEvery); err != nil {
			t.Fatal(err)
		}
		paper = optim.NewKFACSchedule()
	}
	lr := optim.PolyDecaySchedule{
		BaseLR: 1e-2, WarmupSteps: paper.WarmupSteps * steps / paper.TotalSteps, TotalSteps: steps, Power: 0.5,
	}
	lamb := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		lamb.Step(lr.LR(step))
		return nil
	})
	losses := make([]float64, steps)
	for i := range losses {
		res, err := e.TrainStep(c.MakeBatch(batch, data.DefaultBatchConfig(m.Config.SeqLen)))
		if err != nil {
			t.Fatal(err)
		}
		losses[i] = res.Loss.Total
	}
	return losses, e
}

// headLoss runs the adapter's forward — embedding, blocks, heads — over a
// whole batch.
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
// heads, and back through the blocks into the embedding tables — over a
// whole batch, accumulating every parameter's gradient of headLoss's Total.
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

func TestInitialHeadLoss(t *testing.T) {
	m := tinyModel(t, 2)
	c := tinyCorpus(t, 3)
	loss := headLoss(t, m, c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)))
	if math.IsNaN(loss.Total) || loss.Total <= 0 {
		t.Fatalf("bad loss %v", loss)
	}
	// Initial MLM loss should be near log(vocab) for a random model.
	wantMLM := math.Log(float64(m.Config.VocabSize))
	if mlm := loss.Components["mlm"]; math.Abs(mlm-wantMLM) > 1.0 {
		t.Fatalf("initial MLM loss %.3f far from log V = %.3f", mlm, wantMLM)
	}
	// NSP loss near log 2.
	if nsp := loss.Components["nsp"]; math.Abs(nsp-math.Ln2) > 0.5 {
		t.Fatalf("initial NSP loss %.3f far from ln 2", nsp)
	}
}

func TestHeadInputValidation(t *testing.T) {
	m := tinyModel(t, 4)
	batch := tinyCorpus(t, 5).MakeBatch(2, data.DefaultBatchConfig(m.Config.SeqLen))
	totals := pipemodel.Totals{Tokens: m.BatchTokenCount(batch), Seqs: batch.BatchSize}
	if _, err := m.HeadLoss(batch, tensor.Zeros(3, m.Config.DModel), totals); err == nil {
		t.Fatal("expected error for a head input of the wrong shape")
	}
	y := tensor.Zeros(batch.BatchSize*batch.SeqLen, m.Config.DModel)
	if _, err := m.HeadGradient(batch, y, pipemodel.Totals{}); err == nil {
		t.Fatal("expected error for a non-positive sequence total")
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() float64 {
		losses, _ := pretrain(t, tinyModel(t, 20), tinyCorpus(t, 21), 10, 4, 0)
		return losses[9]
	}
	if run() != run() {
		t.Fatal("training must be bit-deterministic for fixed seeds")
	}
}

// TestAdapterGradientMatchesFiniteDifferences checks the adapter's whole
// backward — heads, blocks and embedding — against central differences of
// its forward loss, for a sample of entries of every parameter.
func TestAdapterGradientMatchesFiniteDifferences(t *testing.T) {
	m := tinyModel(t, 30)
	batch := tinyCorpus(t, 31).MakeBatch(2, data.DefaultBatchConfig(m.Config.SeqLen))
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
	m := tinyModel(t, 32)
	c := tinyCorpus(t, 33)
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
	res, err := e.TrainStep(c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Loss.Total) || res.Loss.Total <= 0 {
		t.Fatalf("bad loss %v", res.Loss)
	}
}

func TestStepShapeValidation(t *testing.T) {
	m := tinyModel(t, 34)
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyCorpus(t, 35).MakeBatch(2, data.DefaultBatchConfig(m.Config.SeqLen/2))
	if _, err := e.TrainStep(batch); err == nil {
		t.Fatal("expected error for mismatched sequence length")
	}
}

func TestPretrainLossDecreases(t *testing.T) {
	losses, _ := pretrain(t, tinyModel(t, 6), tinyCorpus(t, 7), 60, 8, 0)
	if first, last := mean(losses[:10]), mean(losses[50:]); last >= first-0.3 {
		t.Fatalf("loss did not decrease: %.3f -> %.3f", first, last)
	}
}

func TestPretrainKFACRuns(t *testing.T) {
	losses, e := pretrain(t, tinyModel(t, 9), tinyCorpus(t, 10), 40, 8, 2)
	// The refresh cadence must follow the configured interval.
	st := e.KFACStates(0).States()[0]
	if st.CurvatureUpdates != 20 || st.InverseUpdates != 20 {
		t.Fatalf("%d curvature, %d inverse refreshes, want 20 each (every 2 of 40)",
			st.CurvatureUpdates, st.InverseUpdates)
	}
	if first, last := mean(losses[:5]), mean(losses[35:]); last >= first {
		t.Fatalf("K-FAC loss did not decrease: %.3f -> %.3f", first, last)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
