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
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// requireParamsBitEqual asserts exact parameter equality between two model
// instances — the round-vs-skip identity is bit-level, like the
// data-parallel collective guarantees it builds on.
func requireParamsBitEqual(t *testing.T, got, want []*nn.Param, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", context, len(got), len(want))
	}
	for i := range got {
		if !got[i].Value.Equal(want[i].Value) {
			t.Fatalf("%s: parameter %s not bit-identical (max diff %g)",
				context, got[i].Name, got[i].Value.Sub(want[i].Value).MaxAbs())
		}
	}
}

// runStepLoop drives the per-step loop: TrainStep, then the optimizer — the
// baseline the round machinery is compared against. Nothing zeroes the
// gradients between steps: each step's fold overwrites them.
func runStepLoop(t *testing.T, model pipemodel.Model, batches []*data.Batch, cfg Config) []float64 {
	t.Helper()
	e, err := NewWithConfig(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := model.Params()
	opt := optim.NewLAMB(params, 0.01)
	var losses []float64
	for _, b := range batches {
		res, err := e.TrainStep(b)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(5e-3)
		losses = append(losses, res.Loss.Total)
	}
	return losses
}

// runRounds drives the same training through K-step rounds: the engine owns
// the per-step optimizer firing (SetOptimizer). prep, if given, adjusts the
// engine once K-FAC is on.
func runRounds(t *testing.T, model pipemodel.Model, batches []*data.Batch, cfg Config, kfacEvery int, prep ...func(*Engine)) []float64 {
	t.Helper()
	e, err := NewWithConfig(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kfacEvery > 0 {
		if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, kfacEvery); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range prep {
		f(e)
	}
	opt := optim.NewLAMB(model.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		opt.Step(5e-3)
		return nil
	})
	k := e.RoundSteps()
	var losses []float64
	for i := 0; i < len(batches); i += k {
		res, err := e.TrainRound(batches[i : i+k])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			losses = append(losses, r.Loss.Total)
		}
	}
	return losses
}

// newKFACEngine builds an engine with K-FAC, an owned optimizer and its
// state attached for checkpoints.
func newKFACEngine(t *testing.T, m pipemodel.Model, cfg Config, kfacEvery int) *Engine {
	t.Helper()
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, kfacEvery); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	e.AttachOptimizerState(opt)
	return e
}

func bertBatches(t *testing.T, n, size int) []*data.Batch {
	t.Helper()
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*data.Batch, n)
	for i := range out {
		out[i] = c.MakeBatch(size, data.DefaultBatchConfig(bert.TinyConfig().SeqLen))
	}
	return out
}

func gptBatches(t *testing.T, n, size int) []*data.Batch {
	t.Helper()
	c, err := data.NewCorpus(gpt.TinyConfig().VocabSize, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*data.Batch, n)
	for i := range out {
		out[i] = gpt.MakeBatch(c, size, gpt.TinyConfig().SeqLen)
	}
	return out
}

// The round machinery on its own (no K-FAC) must be invisible to the math:
// a K = 2 round — one executable schedule spanning both steps, persistent
// device goroutines, per-step collectives and the optimizer firing at the
// round-internal step barrier — produces bit-identical parameters to two
// classic TrainStep iterations, for every schedule and W in {1, 2}.
func TestRoundMachineryBitIdentity(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/W%d", method, w), func(t *testing.T) {
				micro := 4 / w
				if method == "chimera" {
					micro = 4 // chimera needs even micro-batches per replica
				}
				batches := bertBatches(t, 4, 2*micro*w)
				m1, err := bert.New(bert.TinyConfig(), 123)
				if err != nil {
					t.Fatal(err)
				}
				m2, err := bert.New(bert.TinyConfig(), 123)
				if err != nil {
					t.Fatal(err)
				}
				base := Config{Method: method, Stages: 2, MicroBatches: micro, Replicas: w}
				round := base
				round.RefreshSteps = 2
				l1 := runStepLoop(t, m1, batches, base)
				l2 := runRounds(t, m2, batches, round, 0)
				for i := range l1 {
					if l1[i] != l2[i] {
						t.Fatalf("step %d: round loss %.17g != step-loop loss %.17g", i, l2[i], l1[i])
					}
				}
				requireParamsBitEqual(t, m2.Params(), m1.Params(), "round vs step loop")
			})
		}
	}
}

// The round-vs-skip pair on the full K-FAC path: a K = 2 round refreshing
// every round spreads one refresh over both steps' bubbles, a one-step
// engine at the same refresh interval runs the skip cadence — refresh one
// step, run stale the next. Each trains exactly what the reference computes
// under its own schedule's arrival map, for BERT and GPT, every schedule,
// W in {1, 2}.
func TestRoundVsSkipIdentityKFAC(t *testing.T) {
	for _, model := range []string{"bert", "gpt"} {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/W%d", model, method, w), func(t *testing.T) {
					micro := 4 / w
					if method == "chimera" {
						micro = 4
					}
					for _, k := range []int{1, 2} {
						requireMatchesReference(t, refCase{model: model, every: 2, batch: 2 * micro * w, kernel: tensor.KernelTiled,
							cfg: Config{Method: method, Stages: 2, MicroBatches: micro, Replicas: w, RefreshSteps: k}}, 4/k, nil, nil)
					}
				})
			}
		}
	}
}

// The acceptance property of the spread round: with default packing the
// engine executes a K = 2 refresh for real with curvature/inversion ops
// landing in BOTH steps' bubbles of the executed timeline (not all in step
// 0), the refresh still completes within the round (every layer folded
// once and inverted), and each step preconditions with whatever inverses
// its dependency edges guarantee — training proceeds.
func TestRoundDistributesRefreshAcrossSteps(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 4, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, 2); err != nil {
		t.Fatal(err)
	}
	// The schedule itself must spread the refresh.
	perStep := map[int]int{}
	for _, op := range e.Schedule().Ops {
		if op.Kind == pipeline.Curvature || op.Kind == pipeline.Inversion {
			perStep[op.Step]++
		}
	}
	if perStep[0] == 0 || perStep[1] == 0 {
		t.Fatalf("executable round packs K-FAC work into one step only: per-step counts %v", perStep)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	batches := []*data.Batch{
		c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen)),
		c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen)),
	}
	res, err := e.TrainRound(batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("round returned %d step results, want 2", len(res))
	}
	for j, r := range res {
		if !r.Refreshed {
			t.Fatalf("step %d of the refresh round not marked refreshed", j)
		}
		if math.IsNaN(r.Loss.Total) || r.Loss.Total <= 0 {
			t.Fatalf("step %d: bad loss %v", j, r.Loss.Total)
		}
	}
	// The EXECUTED timeline shows the distribution: K-FAC events in both
	// steps' bubbles.
	tl := e.LastTimeline()
	if tl.Steps != 2 || len(tl.StepEnd) != 2 {
		t.Fatalf("executed timeline records %d steps (%d boundaries), want 2", tl.Steps, len(tl.StepEnd))
	}
	execPerStep := map[int]int{}
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Op.Kind == pipeline.Curvature || ev.Op.Kind == pipeline.Inversion {
				execPerStep[ev.Op.Step]++
			}
		}
	}
	if execPerStep[0] == 0 || execPerStep[1] == 0 {
		t.Fatalf("executed K-FAC events not distributed across the round's steps: %v", execPerStep)
	}
	// One round = one complete refresh: every layer folded exactly once,
	// every inverse present.
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.CurvatureUpdates != 1 {
				t.Fatalf("stage %d layer %q: %d curvature updates after one round, want 1", s, ls.Layer.Name, ls.CurvatureUpdates)
			}
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: refresh round left no inverses", s, ls.Layer.Name)
			}
		}
	}
	// A second, non-refresh round executes stale (refreshEvery = 2 means
	// one refresh round in every... round of 2 steps refreshes at rounds
	// 0, 1, 2 only when roundIndex%1 == 0 — with refreshEvery == K every
	// round refreshes, so use the counters to confirm the cadence).
	if _, err := e.TrainRound([]*data.Batch{
		c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen)),
		c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen)),
	}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.CurvatureUpdates != 2 {
				t.Fatalf("stage %d layer %q: %d curvature updates after two refresh rounds, want 2", s, ls.Layer.Name, ls.CurvatureUpdates)
			}
		}
	}
}

// Multi-step rounds with a refresh interval spanning several rounds: only
// every (refreshEvery/K)-th round executes the packed refresh; the others
// precondition with the stale inverses — and a partially committed round
// cannot desync the cadence, because it is counted in rounds.
func TestRoundSkipCadenceAcrossRounds(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 2, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 4); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		}
	}
	res, err := e.TrainRound(mk()) // round 0: refresh
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Refreshed || !res[1].Refreshed {
		t.Fatal("round 0 must refresh")
	}
	res, err = e.TrainRound(mk()) // round 1: stale
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Refreshed || res[1].Refreshed {
		t.Fatal("round 1 must run stale (refreshEvery=4, K=2)")
	}
	if upd := e.KFACStates(0).States()[0].CurvatureUpdates; upd != 1 {
		t.Fatalf("stale round folded curvature: %d updates, want 1", upd)
	}
	res, err = e.TrainRound(mk()) // round 2: refresh again
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Refreshed {
		t.Fatal("round 2 must refresh")
	}
}

// Round-level API validation: multi-step engines reject TrainStep and
// malformed rounds, and the refresh interval must align with the round.
func TestRoundValidation(t *testing.T) {
	m, c := newModelAndCorpus(t)
	if _, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, RefreshSteps: -2}); err == nil {
		t.Fatal("negative RefreshSteps (other than AdaptiveRefreshSteps) must be rejected")
	}
	if e, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, RefreshSteps: AdaptiveRefreshSteps}); err != nil {
		t.Fatalf("AdaptiveRefreshSteps must be accepted: %v", err)
	} else if e.RoundSteps() != 1 {
		t.Fatalf("adaptive engine runs one-step rounds before EnableKFAC, got K=%d", e.RoundSteps())
	}
	e, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))
	if _, err := e.TrainStep(batch); err == nil || !strings.Contains(err.Error(), "TrainRound") {
		t.Fatalf("TrainStep on a multi-step engine must point at TrainRound, got %v", err)
	}
	if _, err := e.TrainRound([]*data.Batch{batch}); err == nil || !strings.Contains(err.Error(), "2 steps") {
		t.Fatalf("round with the wrong batch count must be rejected, got %v", err)
	}
	if _, err := e.TrainRound([]*data.Batch{batch, batch}); err == nil || !strings.Contains(err.Error(), "SetOptimizer") {
		t.Fatalf("multi-step round without an optimizer callback must be rejected, got %v", err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 3); err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Fatalf("refreshEvery not a multiple of the round length must be rejected, got %v", err)
	}
}

// A failure inside a later step of a round aborts cleanly at round
// granularity: devices parked at the step barrier unpark, the root cause
// (not the barrier abort) surfaces, already-committed steps stand (the
// step counter advances past them only), and the engine stays usable.
func TestRoundErrorAbortsAndStaysUsable(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		}
	}
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Backward && op.Step == 1 && op.MicroBatch == 1 {
			return fmt.Errorf("injected step-1 fault")
		}
		return nil
	}
	partial, err := e.TrainRound(mk())
	if err == nil || !strings.Contains(err.Error(), "injected step-1 fault") {
		t.Fatalf("expected the injected fault to surface as the root cause, got %v", err)
	}
	if e.stepIndex != 1 {
		t.Fatalf("step counter %d after a round that committed step 0 only, want 1", e.stepIndex)
	}
	// The committed step's result is not lost: its optimizer update stands
	// and its batch cannot be re-run.
	if len(partial) != 1 {
		t.Fatalf("aborted round returned %d step results, want the 1 committed step", len(partial))
	}
	if math.IsNaN(partial[0].Loss.Total) || partial[0].Loss.Total <= 0 {
		t.Fatalf("committed step's result invalid: %+v", partial[0].Loss)
	}
	e.failOp = nil
	res, err := e.TrainRound(mk())
	if err != nil {
		t.Fatalf("engine unusable after aborted round: %v", err)
	}
	for _, r := range res {
		if math.IsNaN(r.Loss.Total) {
			t.Fatal("NaN loss after recovery round")
		}
	}
	if e.stepIndex != 3 {
		t.Fatalf("step counter %d after recovery round, want 3", e.stepIndex)
	}
	for _, p := range m.Params() {
		if p.Value.HasNaN() {
			t.Fatalf("NaN parameter %s after aborted round + recovery", p.Name)
		}
	}
}

// An aborted *refresh* round must not count as a delivered refresh: the
// window's inversions may have run only partially, so the next round
// re-runs the refresh instead of preconditioning on mixed-generation
// factors until the cadence comes around again.
func TestAbortedRefreshRoundRetries(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// refreshEvery = 8, K = 2: nominally rounds 0, 4, 8, ... refresh.
	if err := e.EnableKFAC(kfac.DefaultOptions(), 8); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
			c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		}
	}
	// Round 0 (refresh) aborts in step 1, after step 0 committed.
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Backward && op.Step == 1 && op.MicroBatch == 1 {
			return fmt.Errorf("injected refresh-round fault")
		}
		return nil
	}
	if _, err := e.TrainRound(mk()); err == nil {
		t.Fatal("expected the injected fault to surface")
	}
	e.failOp = nil
	// The next round is off the nominal cadence (roundIndex = 1) but must
	// refresh anyway, completing a full generation.
	res, err := e.TrainRound(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Refreshed {
		t.Fatal("round after an aborted refresh must re-run the refresh")
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: no inverses after the retried refresh", s, ls.Layer.Name)
			}
		}
	}
	// And the cadence resumes: the following round runs stale.
	res, err = e.TrainRound(mk())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Refreshed {
		t.Fatal("round after a completed refresh must run stale (refreshEvery=8)")
	}
}

// A warm round allocates less than it has ops: the run state — completion
// words, wake channels, hand-off, slot, loss and delta tables — is built
// once per schedule, so a round re-arms it instead of rebuilding it, and
// what a round still allocates (its timeline, results and micro-batch
// views) does not grow with the op count. K-FAC refreshes every round.
func TestRoundAllocatesLessThanItsOps(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, method := range pipeline.Methods() {
		for _, k := range []int{1, 4} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/K%d/W%d", method, k, w), func(t *testing.T) {
					m, c := newModelAndCorpus(t)
					e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4, Replicas: w, RefreshSteps: k})
					if err != nil {
						t.Fatal(err)
					}
					if err := e.EnableKFAC(faultKFACOpts(), k); err != nil {
						t.Fatal(err)
					}
					opt := optim.NewLAMB(m.Params(), 0.01)
					e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
					batches := roundBatches(c, k, 8, m.Config.SeqLen)
					round := func() {
						if _, err := e.TrainRound(batches); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < 3; i++ {
						round()
					}
					ops := len(e.Schedule().Ops)
					if allocs := testing.AllocsPerRun(10, round); allocs >= float64(ops) {
						t.Fatalf("a warm round allocates %.0f times for %d ops", allocs, ops)
					}
				})
			}
		}
	}
}
