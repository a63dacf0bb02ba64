package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

func newModelAndCorpus(t *testing.T) (*bert.Model, *data.Corpus) {
	t.Helper()
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func cloneGrads(params []*nn.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Grad.Clone()
	}
	return out
}

func requireGradsClose(t *testing.T, params []*nn.Param, ref []*tensor.Matrix, context string) {
	t.Helper()
	for i, p := range params {
		if !p.Grad.AllClose(ref[i], 1e-9) {
			t.Fatalf("%s: gradient mismatch for %s (max diff %g)",
				context, p.Name, p.Grad.Sub(ref[i]).MaxAbs())
		}
	}
}

func TestNewValidation(t *testing.T) {
	m, _ := newModelAndCorpus(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero stages", Config{Stages: 0, MicroBatches: 2}, "Stages must be positive"},
		{"zero micro", Config{Stages: 2, MicroBatches: 0}, "MicroBatches must be positive"},
		{"indivisible blocks", Config{Stages: 3, MicroBatches: 2}, "not divisible"},
		{"bad method", Config{Method: "zb-h1", Stages: 2, MicroBatches: 2}, "unknown method"},
		{"chimera odd stages", Config{Method: "chimera", Stages: 1, MicroBatches: 2}, "even number of stages"},
		{"chimera odd micro", Config{Method: "chimera", Stages: 2, MicroBatches: 3}, "even number of micro-batches"},
	}
	for _, tc := range cases {
		_, err := NewWithConfig(m, tc.cfg)
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewWithConfig(nil, Config{Stages: 2, MicroBatches: 2}); err == nil || !strings.Contains(err.Error(), "nil model") {
		t.Fatalf("nil model: got %v", err)
	}
}

func TestTrainStepBatchValidation(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := New(m, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Batch size 6 not divisible by 4 micro-batches.
	batch := c.MakeBatch(6, data.DefaultBatchConfig(m.Config.SeqLen))
	if _, err := e.TrainStep(batch); err == nil {
		t.Fatal("expected error for indivisible batch")
	}
	wrong := c.MakeBatch(4, data.DefaultBatchConfig(8))
	if _, err := e.TrainStep(wrong); err == nil {
		t.Fatal("expected error for wrong sequence length")
	}
}

func TestSplitBatch(t *testing.T) {
	_, c := newModelAndCorpus(t)
	seqLen := bert.TinyConfig().SeqLen
	batch := c.MakeBatch(8, data.DefaultBatchConfig(seqLen))

	t.Run("n equals batch size", func(t *testing.T) {
		micro := splitBatch(batch, 8)
		if len(micro) != 8 {
			t.Fatalf("got %d micro-batches, want 8", len(micro))
		}
		for i, mb := range micro {
			if mb.BatchSize != 1 || mb.SeqLen != seqLen {
				t.Fatalf("micro %d: shape %dx%d", i, mb.BatchSize, mb.SeqLen)
			}
			if len(mb.Tokens) != seqLen || len(mb.Targets) != seqLen || len(mb.IsNext) != 1 {
				t.Fatalf("micro %d: slice lengths %d/%d/%d", i, len(mb.Tokens), len(mb.Targets), len(mb.IsNext))
			}
		}
	})
	t.Run("n equals one", func(t *testing.T) {
		micro := splitBatch(batch, 1)
		if len(micro) != 1 || micro[0].BatchSize != 8 {
			t.Fatalf("single micro-batch must cover the batch, got %+v", micro[0])
		}
		if &micro[0].Tokens[0] != &batch.Tokens[0] {
			t.Fatal("splitBatch must slice, not copy")
		}
	})
	t.Run("seqlen slicing bounds and isnext partition", func(t *testing.T) {
		micro := splitBatch(batch, 4)
		var tokens, targets []int
		var isNext []bool
		for _, mb := range micro {
			tokens = append(tokens, mb.Tokens...)
			targets = append(targets, mb.Targets...)
			isNext = append(isNext, mb.IsNext...)
		}
		if len(tokens) != len(batch.Tokens) || len(targets) != len(batch.Targets) || len(isNext) != len(batch.IsNext) {
			t.Fatal("micro-batches do not cover the batch")
		}
		for i := range tokens {
			if tokens[i] != batch.Tokens[i] || targets[i] != batch.Targets[i] {
				t.Fatalf("position %d: token/target mismatch after split", i)
			}
		}
		for i := range isNext {
			if isNext[i] != batch.IsNext[i] {
				t.Fatalf("sequence %d: IsNext mismatch after split", i)
			}
		}
	})
}

// The headline correctness property: every executable schedule — GPipe,
// 1F1B, and Chimera — produces the same loss and the same parameter
// gradients as a single-device full-batch step.
func TestSchedulesMatchSingleDeviceBERT(t *testing.T) {
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()

	// Single-device reference.
	nn.ZeroGrads(params)
	refLoss, err := m.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	refGrads := cloneGrads(params)

	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if math.Abs(res.Loss.Total-refLoss.Total) > 1e-9 {
			t.Fatalf("%s: loss %.12f != single-device %.12f", method, res.Loss.Total, refLoss.Total)
		}
		if math.Abs(res.Loss.Components["mlm"]-refLoss.MLM) > 1e-9 ||
			math.Abs(res.Loss.Components["nsp"]-refLoss.NSP) > 1e-9 {
			t.Fatalf("%s: loss breakdown differs: %+v vs %+v", method, res.Loss.Components, refLoss)
		}
		if res.Loss.Tokens != refLoss.MaskedCount {
			t.Fatalf("%s: masked count %d != %d", method, res.Loss.Tokens, refLoss.MaskedCount)
		}
		requireGradsClose(t, params, refGrads, method)
		tl := e.LastTimeline()
		if tl == nil || tl.Devices != 2 {
			t.Fatalf("%s: missing executed timeline", method)
		}
		if len(tl.EventsOfKind(pipeline.Forward)) != 2*4 {
			t.Fatalf("%s: executed %d forward events, want 8", method, len(tl.EventsOfKind(pipeline.Forward)))
		}
		if n := len(tl.EventsOfKind(pipeline.Recompute)); n != 0 {
			t.Fatalf("%s: executed %d recompute events, want none: backward runs on the slot its forward filled", method, n)
		}
	}
}

// The same property for the decoder model: the engine is model-agnostic.
func TestSchedulesMatchSingleDeviceGPT(t *testing.T) {
	m, err := gpt.New(gpt.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(gpt.TinyConfig().VocabSize, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	batch := gpt.MakeBatch(c, 8, m.Config.SeqLen)
	params := m.Params()

	nn.ZeroGrads(params)
	refLoss, refCount, err := m.Step(batch.Tokens, batch.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	refGrads := cloneGrads(params)

	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if math.Abs(res.Loss.Total-refLoss) > 1e-9 {
			t.Fatalf("%s: loss %.12f != single-device %.12f", method, res.Loss.Total, refLoss)
		}
		if res.Loss.Tokens != refCount {
			t.Fatalf("%s: predicted count %d != %d", method, res.Loss.Tokens, refCount)
		}
		requireGradsClose(t, params, refGrads, "gpt "+method)
	}
}

func TestPipelineMatchesAcrossMicroBatchCounts(t *testing.T) {
	// Gradients must be invariant to the micro-batch count (1, 2, 4).
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()
	var ref []*tensor.Matrix
	for _, micro := range []int{1, 2, 4} {
		e, err := New(m, 2, micro)
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		if _, err := e.TrainStep(batch); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cloneGrads(params)
			continue
		}
		requireGradsClose(t, params, ref, fmt.Sprintf("micro=%d", micro))
	}
}

func TestDeviceBusyReported(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := New(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))
	nn.ZeroGrads(m.Params())
	res, err := e.TrainStep(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceBusy) != 2 {
		t.Fatalf("expected 2 device busy entries, got %d", len(res.DeviceBusy))
	}
	for d, busy := range res.DeviceBusy {
		if busy <= 0 {
			t.Fatalf("device %d reported no busy time", d)
		}
	}
}

// On a stage failure the step must abort cleanly: peers drain instead of
// dereferencing the poisoned nil activations/error-signals (the old
// engine forwarded y = x and gradOut = gradIn on error, nil-panicking
// downstream stages), and the engine stays usable for the next step.
func TestErrorPathDrainsWithoutPanic(t *testing.T) {
	m, c := newModelAndCorpus(t)
	params := m.Params()
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))

	// Reference gradients from a healthy engine.
	ref, err := New(m, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	if _, err := ref.TrainStep(batch); err != nil {
		t.Fatal(err)
	}
	refGrads := cloneGrads(params)

	for _, tc := range []struct {
		name string
		kind pipeline.WorkKind
		st   int
	}{
		{"fail forward stage 0", pipeline.Forward, 0},
		{"fail forward stage 1", pipeline.Forward, 1},
		{"fail backward stage 1", pipeline.Backward, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(m, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			injected := fmt.Errorf("injected fault")
			e.failOp = func(op *pipeline.Op) error {
				if op.Kind == tc.kind && op.Stage == tc.st && op.MicroBatch == 1 {
					return injected
				}
				return nil
			}
			nn.ZeroGrads(params)
			_, err = e.TrainStep(batch)
			if err == nil || !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("expected injected fault to surface, got %v", err)
			}
			// The engine must be reusable: a clean step produces the
			// reference gradients again.
			e.failOp = nil
			nn.ZeroGrads(params)
			if _, err := e.TrainStep(batch); err != nil {
				t.Fatalf("engine unusable after aborted step: %v", err)
			}
			requireGradsClose(t, params, refGrads, "post-failure step")
		})
	}
}

func TestEngineTrainingConverges(t *testing.T) {
	// End-to-end: pipeline-parallel 1F1B training with LAMB reduces loss.
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	opt := optim.NewLAMB(params, 0.01)
	sched := optim.PolyDecaySchedule{BaseLR: 5e-3, WarmupSteps: 5, TotalSteps: 40, Power: 0.5}
	var first, last float64
	const steps = 40
	for step := 0; step < steps; step++ {
		batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		nn.ZeroGrads(params)
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(sched.LR(step))
		if step < 5 {
			first += res.Loss.Total / 5
		}
		if step >= steps-5 {
			last += res.Loss.Total / 5
		}
	}
	if last >= first-0.2 {
		t.Fatalf("pipelined training did not converge: %.3f -> %.3f", first, last)
	}
}

// K-FAC through the schedule: curvature and inversion ops are packed into
// the executable schedule and actually execute in their slots, refreshing
// the per-stage preconditioners and rewriting gradients at the step's
// precondition op.
func TestEngineKFACScheduleExecution(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))

	// Plain gradients for comparison.
	nn.ZeroGrads(params)
	if _, err := e.TrainStep(batch); err != nil {
		t.Fatal(err)
	}
	plain := cloneGrads(params)

	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, 2); err != nil {
		t.Fatal(err)
	}
	// The executable schedule now carries the K-FAC work.
	sched := e.Schedule()
	nFactors := 2 * len(e.StageLayers(0))
	var curvOps, invOps, precOps int
	for _, op := range sched.Ops {
		switch op.Kind {
		case pipeline.Curvature:
			curvOps++
		case pipeline.Inversion:
			invOps++
		case pipeline.Precondition:
			precOps++
		}
	}
	if want := 2 * 4 * nFactors; curvOps != want {
		t.Fatalf("schedule has %d curvature ops, want %d", curvOps, want)
	}
	if want := 2 * nFactors; invOps != want {
		t.Fatalf("schedule has %d inversion ops, want %d", invOps, want)
	}
	if precOps != 2 {
		t.Fatalf("schedule has %d precondition ops, want 2", precOps)
	}

	nn.ZeroGrads(params)
	res, err := e.TrainStep(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Refreshed {
		t.Fatal("first K-FAC step must refresh curvature and inverses")
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.CurvatureUpdates != 1 {
				t.Fatalf("stage %d layer %q: %d curvature updates, want 1", s, ls.Layer.Name, ls.CurvatureUpdates)
			}
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: missing inverses after refresh step", s, ls.Layer.Name)
			}
		}
	}
	// Gradients of K-FAC layers are preconditioned (differ from plain);
	// no NaNs anywhere.
	var changed bool
	for i, p := range params {
		if p.Grad.HasNaN() {
			t.Fatalf("NaN gradient in %s after K-FAC preconditioning", p.Name)
		}
		if !p.Grad.AllClose(plain[i], 1e-12) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("preconditioning left every gradient untouched")
	}
	// The executed timeline shows the K-FAC work in the bubbles.
	tl := e.LastTimeline()
	if len(tl.EventsOfKind(pipeline.Curvature)) == 0 || len(tl.EventsOfKind(pipeline.Inversion)) == 0 {
		t.Fatal("executed timeline missing K-FAC events")
	}

	// Second step: non-refresh, preconditions with stale inverses.
	nn.ZeroGrads(params)
	res, err = e.TrainStep(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed {
		t.Fatal("second step must reuse stale inverses (refreshEvery=2)")
	}
	if age := e.KFACStates(0).MaxInverseAge(); age != 2 {
		t.Fatalf("inverse age %d after two preconditioned steps, want 2", age)
	}
}

func TestEngineKFACTrainingConverges(t *testing.T) {
	// Full PipeFisher loop: bubble-packed curvature/inversion every 2
	// steps, per-step preconditioning, LAMB update — across schedules.
	for _, method := range []string{"gpipe", "chimera"} {
		t.Run(method, func(t *testing.T) {
			m, c := newModelAndCorpus(t)
			e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.95, UsePiDamping: true}, 2); err != nil {
				t.Fatal(err)
			}
			params := m.Params()
			opt := optim.NewLAMB(params, 0.01)
			sched := optim.PolyDecaySchedule{BaseLR: 5e-3, WarmupSteps: 3, TotalSteps: 30, Power: 0.5}
			var first, last float64
			const steps = 30
			for step := 0; step < steps; step++ {
				batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
				nn.ZeroGrads(params)
				res, err := e.TrainStep(batch)
				if err != nil {
					t.Fatal(err)
				}
				opt.Step(sched.LR(step))
				if step < 5 {
					first += res.Loss.Total / 5
				}
				if step >= steps-5 {
					last += res.Loss.Total / 5
				}
			}
			if last >= first-0.1 {
				t.Fatalf("PipeFisher-style training did not converge: %.3f -> %.3f", first, last)
			}
		})
	}
}

// The cross-schedule gradient identity must also hold with parallel
// kernels enabled: blocked kernels reduce every output element in the same
// serial order regardless of worker count, so gradients stay bit-compatible
// with the single-device serial reference, and the executed timeline
// records the configured parallelism.
func TestSchedulesMatchSingleDeviceWithParallelKernels(t *testing.T) {
	defer tensor.SetParallelism(0)
	defer tensor.SetOpParallelism(0)
	tensor.SetParallelism(1)
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()

	// Serial single-device reference.
	nn.ZeroGrads(params)
	refLoss, err := m.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	refGrads := cloneGrads(params)

	tensor.SetParallelism(4)
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if math.Abs(res.Loss.Total-refLoss.Total) > 1e-9 {
			t.Fatalf("%s: parallel loss %.12f != serial single-device %.12f", method, res.Loss.Total, refLoss.Total)
		}
		// The first K-FAC step refreshes but must precondition only after
		// the full backward — plain gradients are rewritten in place, so
		// compare against the reference before preconditioning via a
		// second, K-FAC-free engine instead.
		tl := e.LastTimeline()
		if tl.Parallelism != 4 {
			t.Fatalf("%s: executed timeline records parallelism %d, want 4", method, tl.Parallelism)
		}
		if tl.OpParallelism != 2 {
			t.Fatalf("%s: executed timeline records per-op share %d, want 2", method, tl.OpParallelism)
		}

		plain, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		if _, err := plain.TrainStep(batch); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		requireGradsClose(t, params, refGrads, "parallel "+method)
	}
}

func TestStageLayers(t *testing.T) {
	m, _ := newModelAndCorpus(t)
	e, err := New(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.StageLayers(0)); got != 6 {
		t.Fatalf("stage 0 has %d K-FAC layers, want 6", got)
	}
	if got := len(e.StageLayers(1)); got != 6 {
		t.Fatalf("stage 1 has %d K-FAC layers, want 6", got)
	}
	// Stages own disjoint layers.
	seen := map[*nn.Dense]bool{}
	for s := 0; s < e.Stages(); s++ {
		for _, l := range e.StageLayers(s) {
			if seen[l] {
				t.Fatal("stages share a layer")
			}
			seen[l] = true
		}
	}
}
