package bert

import (
	"math"
	"testing"

	"repro/internal/data"
)

func TestEvaluateUntrainedModel(t *testing.T) {
	m := tinyModel(t, 1)
	c := tinyCorpus(t, 2)
	batch := c.MakeBatch(16, data.DefaultBatchConfig(m.Config.SeqLen))
	res, err := m.Evaluate(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained: MLM accuracy near chance (<< 50%), perplexity near vocab
	// size, NSP near 50%.
	if res.MLMAccuracy > 0.3 {
		t.Fatalf("untrained MLM accuracy %.3f suspiciously high", res.MLMAccuracy)
	}
	if res.MLMPerplexity < 20 || res.MLMPerplexity > 500 {
		t.Fatalf("untrained perplexity %.1f outside plausible range for vocab 96", res.MLMPerplexity)
	}
	if res.NSPAccuracy < 0.1 || res.NSPAccuracy > 0.9 {
		t.Fatalf("untrained NSP accuracy %.3f far from chance", res.NSPAccuracy)
	}
	if math.Abs(math.Log(res.MLMPerplexity)-res.Loss.MLM) > 1e-9 {
		t.Fatal("perplexity must be exp(MLM loss)")
	}
}

func TestEvaluateImprovesWithTraining(t *testing.T) {
	m := tinyModel(t, 3)
	c := tinyCorpus(t, 4)
	heldOut := c.MakeBatch(32, data.DefaultBatchConfig(m.Config.SeqLen))
	before, err := m.Evaluate(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	pretrain(t, m, c, 80, 16, 0)
	after, err := m.Evaluate(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	if after.Loss.MLM >= before.Loss.MLM {
		t.Fatalf("held-out MLM loss did not improve: %.3f -> %.3f", before.Loss.MLM, after.Loss.MLM)
	}
	if after.MLMAccuracy <= before.MLMAccuracy {
		t.Fatalf("held-out MLM accuracy did not improve: %.3f -> %.3f", before.MLMAccuracy, after.MLMAccuracy)
	}
	if after.MLMPerplexity >= before.MLMPerplexity {
		t.Fatal("perplexity did not improve")
	}
}

func TestEvaluateDoesNotTouchGradients(t *testing.T) {
	m := tinyModel(t, 5)
	c := tinyCorpus(t, 6)
	batch := c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
	if _, err := m.Evaluate(batch); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if p.Grad.Sum() != 0 {
			t.Fatalf("Evaluate modified gradient of %s", p.Name)
		}
	}
}

func TestEvaluateShapeValidation(t *testing.T) {
	m := tinyModel(t, 7)
	c, _ := data.NewCorpus(m.Config.VocabSize, 1.0, 8)
	if _, err := m.Evaluate(c.MakeBatch(2, data.DefaultBatchConfig(8))); err == nil {
		t.Fatal("expected error for wrong sequence length")
	}
}

// TestEvaluateMatchesHeadLoss pins Evaluate to the adapter's loss: on a whole
// batch (the batch's own totals) the two forwards agree up to HeadLoss's
// count rescale.
func TestEvaluateMatchesHeadLoss(t *testing.T) {
	m := tinyModel(t, 7)
	batch := tinyCorpus(t, 8).MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	res, err := m.Evaluate(batch)
	if err != nil {
		t.Fatal(err)
	}
	loss := headLoss(t, m, batch)
	if res.Loss.MaskedCount != loss.Tokens {
		t.Fatalf("masked count %d, HeadLoss tokens %d", res.Loss.MaskedCount, loss.Tokens)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mlm", res.Loss.MLM, loss.Components["mlm"]},
		{"nsp", res.Loss.NSP, loss.Components["nsp"]},
		{"total", res.Loss.Total, loss.Total},
	} {
		if math.Abs(c.got-c.want) > 1e-12*math.Abs(c.want) {
			t.Fatalf("%s: Evaluate %.17g, HeadLoss %.17g", c.name, c.got, c.want)
		}
	}
}
