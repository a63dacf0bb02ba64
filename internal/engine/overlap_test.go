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
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/schedule"
)

// hasCarrySchedule reports whether the engine's executable schedule
// contains carried (Generation = 1) refresh ops.
func hasCarrySchedule(e *Engine) bool {
	for _, op := range e.Schedule().Ops {
		if op.Generation == 1 {
			return true
		}
	}
	return false
}

// Overlap-vs-serialized bit-identity when the cadences align — i.e. when
// the window's bubbles hold the whole refresh, so nothing carries and the
// overlapped schedule degenerates to the serialized one. The generation
// pools, parity bookkeeping, and pool-borne loss scaling must then be
// invisible to the math: identical losses and bit-identical parameters for
// BERT and GPT, all three schedules, W in {1, 2}. (gpipe/1f1b fit at K = 2
// with 2 stages; chimera needs the 4-stage form — its 2-stage schedule has
// no usable bubbles at all.) The configurations align under the parent's
// packing proportions, which the test pins (parentCosts): priced from the
// tiny model's shapes, whose curvature is as many FLOPs as a backward, the
// refresh no longer fits a K = 2 window at W = 1.
// TestOverlapVsSerializedBitIdentityShapePriced runs the identity on the
// engine's default path.
func TestOverlapVsSerializedBitIdentity(t *testing.T) {
	type modelCase struct {
		name    string
		make    func(blocks int) (pipemodel.Model, error)
		batches func(t *testing.T, n, size int) []*data.Batch
	}
	cases := []modelCase{
		{"bert", func(blocks int) (pipemodel.Model, error) {
			cfg := bert.TinyConfig()
			cfg.Blocks = blocks
			return bert.New(cfg, 123)
		}, bertBatches},
		{"gpt", func(blocks int) (pipemodel.Model, error) {
			cfg := gpt.TinyConfig()
			cfg.Blocks = blocks
			return gpt.New(cfg, 99)
		}, gptBatches},
	}
	for _, mc := range cases {
		for _, method := range []string{"gpipe", "1f1b", "chimera"} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/W%d", mc.name, method, w), func(t *testing.T) {
					stages, micro, blocks := 2, 4/w, 2
					if method == "chimera" {
						stages, micro, blocks = 4, 4, 4
					}
					batches := mc.batches(t, 4, 2*micro*w)
					m1, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					base := Config{
						Method: method, Stages: stages, MicroBatches: micro,
						Replicas: w, InversionParallel: w > 1, RefreshSteps: 2,
					}
					over := base
					over.OverlapRounds = true
					pin := func(e *Engine) { pinParentCosts(t, e) }
					l1 := runRounds(t, m1, batches, base, 2, pin)
					l2 := runRounds(t, m2, batches, over, 2, pin)
					for i := range l1 {
						if l1[i] != l2[i] {
							t.Fatalf("step %d: overlap loss %.17g != serialized loss %.17g", i, l2[i], l1[i])
						}
					}
					requireParamsBitEqual(t, m2.Params(), m1.Params(), "overlap vs serialized")
				})
			}
		}
	}
}

// The aligned-cadence identity above is only meaningful if the schedule
// really carries nothing; this guard fails loudly if the pinned cost shape
// drifts and the configs stop aligning.
func TestOverlapIdentityConfigsCarryNothing(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, w := range []int{1, 2} {
			stages, micro, blocks := 2, 4/w, 2
			if method == "chimera" {
				stages, micro, blocks = 4, 4, 4
			}
			cfg := bert.TinyConfig()
			cfg.Blocks = blocks
			m, err := bert.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewWithConfig(m, Config{
				Method: method, Stages: stages, MicroBatches: micro,
				Replicas: w, InversionParallel: w > 1, RefreshSteps: 2, OverlapRounds: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
				t.Fatal(err)
			}
			pinParentCosts(t, e)
			if hasCarrySchedule(e) {
				t.Fatalf("%s/W%d K=2: identity config now carries work; realign the bit-identity test", method, w)
			}
		}
	}
}

// The same identity on the engine's default path: costs priced from the
// model's shapes, re-priced when the first round shows its micro-batch
// shape. The tiny models' refresh fits a K = 4 window there; a model with a
// 128-wide feed-forward layer needs K = 8 and inverts its 128-wide factors
// as chains. After the rounds, the overlapped engine's schedule must carry
// nothing — otherwise the configuration no longer tests the identity.
func TestOverlapVsSerializedBitIdentityShapePriced(t *testing.T) {
	type modelCase struct {
		name    string
		k       int
		make    func(blocks int) (pipemodel.Model, error)
		batches func(t *testing.T, n, size int) []*data.Batch
	}
	cases := []modelCase{
		{"bert", 4, func(blocks int) (pipemodel.Model, error) {
			cfg := bert.TinyConfig()
			cfg.Blocks = blocks
			return bert.New(cfg, 123)
		}, bertBatches},
		{"gpt", 4, func(blocks int) (pipemodel.Model, error) {
			cfg := gpt.TinyConfig()
			cfg.Blocks = blocks
			return gpt.New(cfg, 99)
		}, gptBatches},
		{"bert-ffn128", 8, func(blocks int) (pipemodel.Model, error) {
			cfg := bert.TinyConfig()
			cfg.Blocks, cfg.DFF = blocks, 128
			return bert.New(cfg, 123)
		}, bertBatches},
	}
	for _, mc := range cases {
		for _, method := range []string{"gpipe", "1f1b", "chimera"} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/W%d", mc.name, method, w), func(t *testing.T) {
					stages, micro, blocks := 2, 4/w, 2
					if method == "chimera" {
						stages, micro, blocks = 4, 4, 4
					}
					batches := mc.batches(t, 2*mc.k, 2*micro*w)
					m1, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					base := Config{
						Method: method, Stages: stages, MicroBatches: micro,
						Replicas: w, InversionParallel: w > 1, RefreshSteps: mc.k,
					}
					over := base
					over.OverlapRounds = true
					var oe *Engine
					l1 := runRounds(t, m1, batches, base, mc.k)
					l2 := runRounds(t, m2, batches, over, mc.k, func(e *Engine) { oe = e })
					if hasCarrySchedule(oe) {
						t.Fatalf("K=%d: identity config carries work at the rounds' shape; realign it", mc.k)
					}
					for i := range l1 {
						if l1[i] != l2[i] {
							t.Fatalf("step %d: overlap loss %.17g != serialized loss %.17g", i, l2[i], l1[i])
						}
					}
					requireParamsBitEqual(t, m2.Params(), m1.Params(), "overlap vs serialized")
				})
			}
		}
	}
}

// The pipelined-generations steady state: a K = 1 window cannot hold the
// refresh, so with overlap the WHOLE refresh carries — round g collects
// generation g's statistics while executing generation g-1's curvature,
// fold, and inversions in its bubbles. Delivery therefore lags collection
// by one round, every round delivers a complete generation in steady
// state, and the carried fold must use its own generation's statistics.
func TestOverlapCarriedGenerationDelivery(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1, OverlapRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, 1); err != nil {
		t.Fatal(err)
	}
	if !hasCarrySchedule(e) {
		t.Fatal("K=1 overlap schedule must carry the refresh")
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))}
	}
	curvUpdates := func() int {
		n := e.KFACStates(0).States()[0].CurvatureUpdates
		for s := 0; s < e.Stages(); s++ {
			for _, ls := range e.KFACStates(s).States() {
				if ls.CurvatureUpdates != n {
					t.Fatalf("stage %d layer %q: %d curvature updates, others have %d",
						s, ls.Layer.Name, ls.CurvatureUpdates, n)
				}
			}
		}
		return n
	}
	// Round 0: collect generation 0; nothing delivered yet.
	res, err := e.TrainRound(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Refreshed {
		t.Fatal("round 0 must collect")
	}
	if got := curvUpdates(); got != 0 {
		t.Fatalf("round 0 folded %d generations; delivery must lag collection", got)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.HasInverses() {
				t.Fatalf("stage %d layer %q: inverses before the carried round delivered them", s, ls.Layer.Name)
			}
		}
	}
	// Round 1: generation 0's carried ops execute — full delivery — while
	// generation 1 is collected into the other pool.
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatal(err)
	}
	if got := curvUpdates(); got != 1 {
		t.Fatalf("after round 1: %d generations folded, want 1", got)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: carried round left no inverses", s, ls.Layer.Name)
			}
		}
	}
	// The executed timeline shows the carried generation in the bubbles.
	var carriedEvents int
	tl := e.LastTimeline()
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if (ev.Op.Kind == pipeline.Curvature || ev.Op.Kind == pipeline.Inversion) && ev.Op.Generation == 1 {
				carriedEvents++
			}
		}
	}
	if carriedEvents == 0 {
		t.Fatal("executed timeline of the carried round shows no Generation-1 refresh events")
	}
	// Round 2: steady state — one complete generation per round.
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatal(err)
	}
	if got := curvUpdates(); got != 2 {
		t.Fatalf("after round 2: %d generations folded, want 2 (one per steady-state round)", got)
	}
	for _, p := range m.Params() {
		if p.Value.HasNaN() {
			t.Fatalf("NaN parameter %s under overlapped rounds", p.Name)
		}
	}
}

// Partial carry: a 4-stage chimera K = 1 window holds part of the refresh
// under the parent's packing proportions (pinned: under the tiny model's own
// shapes none of it fits); the rest carries. The steady-state round then
// executes BOTH generations — the window's own fitted refresh work and the
// previous generation's carried remainder — against the two pools, and the
// per-layer fold order keeps every layer's EMA sequential in generations.
func TestOverlapPartialCarryExecutesBothGenerations(t *testing.T) {
	cfg := bert.TinyConfig()
	cfg.Blocks = 4
	m, err := bert.New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(cfg.VocabSize, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, Config{
		Method: "chimera", Stages: 4, MicroBatches: 4, RefreshSteps: 1, OverlapRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
		t.Fatal(err)
	}
	pinParentCosts(t, e)
	var gen0, gen1 int
	for _, op := range e.Schedule().Ops {
		if op.Kind == pipeline.Curvature || op.Kind == pipeline.Inversion {
			if op.Generation == 1 {
				gen1++
			} else {
				gen0++
			}
		}
	}
	if gen0 == 0 || gen1 == 0 {
		t.Fatalf("want a partial carry (both generations in the schedule), got gen0=%d gen1=%d", gen0, gen1)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{c.MakeBatch(8, data.DefaultBatchConfig(cfg.SeqLen))}
	}
	for round := 0; round < 3; round++ {
		res, err := e.TrainRound(mk())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if math.IsNaN(res[0].Loss.Total) || res[0].Loss.Total <= 0 {
			t.Fatalf("round %d: bad loss %v", round, res[0].Loss.Total)
		}
	}
	// Steady-state round: both generations' refresh events executed.
	var exec0, exec1 int
	tl := e.LastTimeline()
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Op.Kind == pipeline.Curvature || ev.Op.Kind == pipeline.Inversion {
				if ev.Op.Generation == 1 {
					exec1++
				} else {
					exec0++
				}
			}
		}
	}
	if exec0 == 0 || exec1 == 0 {
		t.Fatalf("steady-state round must execute both generations, got gen0=%d gen1=%d events", exec0, exec1)
	}
	// Rounds 0..2 = generations 0..2 collected; generations 0 and 1
	// delivered (generation 2's fitted part folded in round 2 as well).
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.CurvatureUpdates < 2 {
				t.Fatalf("stage %d layer %q: only %d generations folded after 3 rounds", s, ls.Layer.Name, ls.CurvatureUpdates)
			}
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: no inverses in steady state", s, ls.Layer.Name)
			}
		}
	}
}

// Partial carry on the default path: at the rounds' shape, a 4-stage 1F1B
// K = 2 window of a model with a 128-wide feed-forward layer holds part of
// the refresh — 128-wide factors inverting as chains — and the rest carries.
// The steady-state round executes both generations, a chain's steps all in
// one, and every layer folds once per generation.
func TestOverlapPartialCarryShapePriced(t *testing.T) {
	cfg := bert.TinyConfig()
	cfg.Blocks, cfg.DFF = 4, 128
	m, err := bert.New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(cfg.VocabSize, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 4, MicroBatches: 4, RefreshSteps: 2, OverlapRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{
			c.MakeBatch(8, data.DefaultBatchConfig(cfg.SeqLen)),
			c.MakeBatch(8, data.DefaultBatchConfig(cfg.SeqLen)),
		}
	}
	for round := 0; round < 3; round++ {
		res, err := e.TrainRound(mk())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, r := range res {
			if math.IsNaN(r.Loss.Total) || r.Loss.Total <= 0 {
				t.Fatalf("round %d: bad loss %v", round, r.Loss.Total)
			}
		}
	}
	chainGen := make(map[[3]int]int) // (stage, factor, replica) -> generation of its chain steps
	var sched0, sched1 int
	for _, op := range e.Schedule().Ops {
		if !op.Kind.IsRefresh() {
			continue
		}
		if op.Generation == 1 {
			sched1++
		} else {
			sched0++
		}
		if op.Chain > 0 {
			key := [3]int{op.Stage, op.Factor, op.Replica}
			if g, ok := chainGen[key]; ok && g != op.Generation {
				t.Fatalf("stage %d factor %d: chain steps in generations %d and %d", op.Stage, op.Factor, g, op.Generation)
			}
			chainGen[key] = op.Generation
		}
	}
	if sched0 == 0 || sched1 == 0 || len(chainGen) == 0 {
		t.Fatalf("want a partial carry with chains at the rounds' shape, got gen0=%d gen1=%d chained factors=%d", sched0, sched1, len(chainGen))
	}
	var exec0, exec1 int
	tl := e.LastTimeline()
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Op.Kind == pipeline.Curvature || ev.Op.Kind == pipeline.Inversion {
				if ev.Op.Generation == 1 {
					exec1++
				} else {
					exec0++
				}
			}
		}
	}
	if exec0 == 0 || exec1 == 0 {
		t.Fatalf("steady-state round must execute both generations, got gen0=%d gen1=%d events", exec0, exec1)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.CurvatureUpdates < 2 {
				t.Fatalf("stage %d layer %q: only %d generations folded after 3 rounds", s, ls.Layer.Name, ls.CurvatureUpdates)
			}
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: no inverses in steady state", s, ls.Layer.Name)
			}
		}
	}
}

// An abort while a carried generation is in flight discards it: the pools
// are scrubbed, and the next round re-runs a full refresh rather than
// serving a half-delivered generation.
func TestOverlapAbortDiscardsCarriedGeneration(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1, OverlapRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))}
	}
	if _, err := e.TrainRound(mk()); err != nil { // round 0: collect
		t.Fatal(err)
	}
	// Round 1 (the carried delivery) aborts mid-carry.
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Inversion && op.Generation == 1 {
			return fmt.Errorf("injected carry fault")
		}
		return nil
	}
	if _, err := e.TrainRound(mk()); err == nil || !strings.Contains(err.Error(), "injected carry fault") {
		t.Fatalf("expected the injected carry fault, got %v", err)
	}
	if e.carried != nil {
		t.Fatal("aborted round left a carried generation pending")
	}
	e.failOp = nil
	// Recovery: the next rounds rebuild a full generation and deliver it.
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: no inverses after recovery", s, ls.Layer.Name)
			}
		}
	}
	for _, p := range m.Params() {
		if p.Value.HasNaN() {
			t.Fatalf("NaN parameter %s after aborted carry + recovery", p.Name)
		}
	}
}

// MeasuredCosts round-trip under overlapped rounds: the measured durations
// of an executed overlapped round feed back into the overlapped executable
// form and yield a valid, runnable schedule — the sim/exec calibration
// loop works for the new round shape too.
func TestOverlapMeasuredCostsRoundTrip(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1, OverlapRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		return []*data.Batch{c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))}
	}
	for round := 0; round < 2; round++ { // round 1 executes carried refresh work
		if _, err := e.TrainRound(mk()); err != nil {
			t.Fatal(err)
		}
	}
	tl := e.LastTimeline()
	costs := MeasuredCosts(tl, 2*len(e.StageLayers(0)))
	s, err := schedule.Executable(schedule.Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, Costs: costs,
		RefreshSteps: 1, Overlap: true,
	})
	if err != nil {
		t.Fatalf("measured costs do not yield an overlapped executable schedule: %v", err)
	}
	if _, err := pipeline.Run(s); err != nil {
		t.Fatalf("measured-cost overlapped schedule stalls: %v", err)
	}
}

// Adaptive K: with Config.RefreshSteps = AdaptiveRefreshSteps the round
// length comes from Assign's measured refresh window at EnableKFAC time,
// TrainRound consumes RoundSteps batches, and the refreshEvery validation
// names the adaptive resolution path instead of blaming a flag the caller
// never set.
func TestAdaptiveRefreshSteps(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: AdaptiveRefreshSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A refreshEvery that cannot be a multiple of any K > 1 the measured
	// window might choose: the error must name the adaptive path.
	if err := e.EnableKFAC(kfac.DefaultOptions(), 3); err == nil {
		t.Fatal("refreshEvery 3 with measured K=2 must be rejected")
	} else if !strings.Contains(err.Error(), "adaptively") {
		t.Fatalf("adaptive-K validation error must report the adaptive resolution path, got: %v", err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 0); err != nil {
		t.Fatal(err)
	}
	k := e.RoundSteps()
	if k < 2 {
		t.Fatalf("the 1f1b tiny refresh needs a multi-step window; adaptive K resolved to %d", k)
	}
	if e.Schedule().Steps != k {
		t.Fatalf("executable schedule spans %d steps, adaptive K is %d", e.Schedule().Steps, k)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	batches := make([]*data.Batch, k)
	for j := range batches {
		batches[j] = c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	}
	res, err := e.TrainRound(batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != k {
		t.Fatalf("adaptive round returned %d step results, want %d", len(res), k)
	}
	for j, r := range res {
		if math.IsNaN(r.Loss.Total) || r.Loss.Total <= 0 {
			t.Fatalf("step %d: bad loss %v", j, r.Loss.Total)
		}
	}
}

// Adaptive K follows the rounds' micro-batch shape. EnableKFAC prices one
// sequence per micro-batch, where a 128-wide factor's inversion weighs most
// against a forward; the first round, at two sequences each, runs the K its
// caller sized for and re-prices; once it committed, K is the window
// AdaptiveRoundLength derives from the costs the engine now packs with, the
// schedule spans it, the refresh cadence keeps one refresh per round, and
// the next round — at the same shape — keeps it.
func TestAdaptiveRoundLengthFollowsShape(t *testing.T) {
	cfg := bert.TinyConfig()
	cfg.DFF = 128
	m, err := bert.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(cfg.VocabSize, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: AdaptiveRefreshSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 0); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	round := func() []*StepResult {
		t.Helper()
		batches := make([]*data.Batch, e.RoundSteps())
		for j := range batches {
			batches[j] = c.MakeBatch(8, data.DefaultBatchConfig(cfg.SeqLen))
		}
		res, err := e.TrainRound(batches)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	k0 := e.RoundSteps()
	if res := round(); len(res) != k0 {
		t.Fatalf("the re-pricing round ran %d steps, its caller sized %d", len(res), k0)
	}
	want, err := schedule.AdaptiveRoundLength(e.ScheduleConfig(e.ModeledCosts()))
	if err != nil {
		t.Fatal(err)
	}
	if want == k0 {
		t.Fatalf("adaptive K is %d at one and at two sequences per micro-batch: the test does not exercise a change", k0)
	}
	k := e.RoundSteps()
	if k != want || e.Schedule().Steps != k || e.RefreshEvery() != k {
		t.Fatalf("after the re-pricing round: K %d, schedule %d steps, refresh every %d; want K %d (was %d)",
			k, e.Schedule().Steps, e.RefreshEvery(), want, k0)
	}
	if res := round(); len(res) != k || !res[0].Refreshed {
		t.Fatalf("second round: %d steps, refreshed %v; want %d steps and a refresh", len(res), res[0].Refreshed, k)
	}
	if e.RoundSteps() != k {
		t.Fatalf("K moved from %d to %d at an unchanged shape", k, e.RoundSteps())
	}
}
