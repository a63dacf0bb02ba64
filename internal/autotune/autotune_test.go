package autotune

import (
	"strings"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/trace"
)

// newTestEngine builds a tiny BERT engine in the deliberately bad starting
// configuration of the convergence tests: gpipe, K = 1, no overlap.
func newTestEngine(t *testing.T, cfg engine.Config) (*engine.Engine, func(rounds int)) {
	t.Helper()
	bc := bert.TinyConfig()
	bc.Blocks = 2
	m, err := bert.New(bc, 123)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, cfg.RefreshSteps); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		opt.Step(5e-3)
		return nil
	})
	corpus, err := data.NewCorpus(bc.VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(rounds int) {
		for r := 0; r < rounds; r++ {
			k := e.RoundSteps() // K changes across swaps
			batches := make([]*data.Batch, k)
			for i := range batches {
				batches[i] = corpus.MakeBatch(2*cfg.MicroBatches, data.DefaultBatchConfig(bc.SeqLen))
			}
			if _, err := e.TrainRound(batches); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e, drive
}

func badStartConfig() engine.Config {
	return engine.Config{Method: "gpipe", Stages: 2, MicroBatches: 4, RefreshSteps: 1}
}

// The tuner must observe executed timelines, produce a model-error
// trajectory, and replace observed cost classes with measured medians.
func TestTunerObservesAndFits(t *testing.T) {
	e, drive := newTestEngine(t, badStartConfig())
	tn, err := New(e, Config{WarmupRounds: 1, Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	static := e.ModeledCosts()
	for r := 0; r < 4; r++ {
		drive(1)
		if _, err := tn.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	recs := tn.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	if recs[0].ModelError >= 0 {
		t.Fatal("warm-up round produced a model error")
	}
	if recs[3].ModelError < 0 {
		t.Fatal("no model error after warm rounds")
	}
	fitted := tn.FittedCosts()
	if fitted.Forward == static.Forward && fitted.Backward == static.Backward {
		t.Fatalf("fitted costs did not move off the static shape: %+v", fitted)
	}
	if len(fitted.CurvatureUnits) != len(static.CurvatureUnits) {
		t.Fatalf("fitted cost shape lost factors: %d vs %d",
			len(fitted.CurvatureUnits), len(static.CurvatureUnits))
	}
}

// From the deliberately bad start (gpipe, K = 1, serialized), the tuner
// must swap to a better-ranked configuration within bounded rounds, the
// engine must keep training through the swap, and once the running
// configuration ranks best the tuner must hold (no churn).
func TestTunerConvergesFromBadStart(t *testing.T) {
	e, drive := newTestEngine(t, badStartConfig())
	tn, err := New(e, Config{
		WarmupRounds: 1, Interval: 2, MinRelGain: 0.01,
		Methods: []string{"gpipe", "1f1b"}, MaxRefreshSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := e.Shape()
	var swapped *Decision
	for r := 0; r < 12 && swapped == nil; r++ {
		drive(1)
		d, err := tn.Observe()
		if err != nil {
			t.Fatal(err)
		}
		if d != nil && d.Swapped {
			swapped = d
		}
	}
	if swapped == nil {
		t.Fatalf("tuner never swapped off the bad start %s", start)
	}
	if swapped.Choice == start {
		t.Fatalf("swap decision chose the starting configuration: %+v", swapped)
	}
	if swapped.ChoiceStep >= swapped.CurrentStep {
		t.Fatalf("swap without predicted gain: %d -> %d us/step",
			swapped.CurrentStep, swapped.ChoiceStep)
	}
	if got := e.Shape(); got != swapped.Choice {
		t.Fatalf("engine runs %s after swapping to %s", got, swapped.Choice)
	}
	// The engine keeps training through the swap, and parameters stay
	// finite.
	drive(2)
	for _, p := range e.StageLayers(0) {
		for _, prm := range p.Params() {
			if prm.Value.MaxAbs() != prm.Value.MaxAbs() { // NaN check
				t.Fatalf("parameter %s went NaN after swap", prm.Name)
			}
		}
	}
	// Subsequent decisions hold: the adopted configuration predicts best
	// under its own fitted costs, so the tuner must not churn back.
	adopted := e.Shape()
	for r := 0; r < 4; r++ {
		drive(1)
		d, err := tn.Observe()
		if err != nil {
			t.Fatal(err)
		}
		if d != nil && d.Swapped {
			t.Fatalf("tuner churned after adopting %s: %+v", adopted, d)
		}
	}
}

// Decision rounds where the current configuration ranks best must not
// touch the engine, and the tune artifact must render both forms.
func TestTunerRecordsAndArtifacts(t *testing.T) {
	e, drive := newTestEngine(t, badStartConfig())
	tn, err := New(e, Config{
		WarmupRounds: 1, Interval: 2, MinRelGain: 0.01,
		Methods: []string{"gpipe", "1f1b"}, MaxRefreshSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		drive(1)
		if _, err := tn.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	recs := tn.Records()
	var decisions int
	for _, r := range recs {
		if r.Decision {
			decisions++
			if r.Choice == "" || r.Current == "" {
				t.Fatalf("decision record missing candidates: %+v", r)
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no decision records after 6 rounds at interval 2")
	}
	var csv, log strings.Builder
	if err := trace.WriteTuneCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	if err := trace.RenderTuneLog(&log, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "model_error") {
		t.Fatalf("tune CSV missing header: %q", csv.String())
	}
	if !strings.Contains(log.String(), "round ") {
		t.Fatalf("tune log missing decisions: %q", log.String())
	}
}
