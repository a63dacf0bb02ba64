package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/tensor"
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

// overlapIdentityCases are the models and round lengths at which the
// overlap-vs-serialized identity holds on the engine's default path — costs
// priced from the model's shapes at two sequences per micro-batch: the tiny
// models' refresh fits a K = 4 window, and a model with a 128-wide
// feed-forward layer needs K = 8 and inverts its 128-wide factors as chains.
var overlapIdentityCases = []struct {
	model string // a refModels key
	k     int
}{{"bert", 4}, {"gpt", 4}, {"bert-ffn128", 8}}

// overlapIdentityConfig is the serialized engine configuration of one
// identity case: chimera needs the 4-stage form, its 2-stage schedule has no
// usable bubbles at all.
func overlapIdentityConfig(method string, w, k int) (Config, int) {
	stages, micro, blocks := 2, 4/w, 2
	if method == "chimera" {
		stages, micro, blocks = 4, 4, 4
	}
	return Config{
		Method: method, Stages: stages, MicroBatches: micro,
		Replicas: w, InversionParallel: w > 1, RefreshSteps: k,
	}, blocks
}

// Overlap-vs-serialized bit-identity when the cadences align — i.e. when
// the window's bubbles hold the whole refresh, so nothing carries and the
// overlapped schedule degenerates to the serialized one. The generation
// pools, parity bookkeeping, and pool-borne loss scaling must then be
// invisible to the math: identical losses and bit-identical parameters for
// BERT and GPT, all three schedules, W in {1, 2}.
func TestOverlapVsSerializedBitIdentity(t *testing.T) {
	for _, mc := range overlapIdentityCases {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/W%d", mc.model, method, w), func(t *testing.T) {
					base, blocks := overlapIdentityConfig(method, w, mc.k)
					batches := refModels[mc.model].batches(t, 2*mc.k, 2*base.MicroBatches*w)
					m1, err := refModels[mc.model].make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := refModels[mc.model].make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					over := base
					over.OverlapRounds = true
					l1 := runRounds(t, m1, batches, base, mc.k)
					l2 := runRounds(t, m2, batches, over, mc.k)
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
// really carries nothing: at the rounds' shape, every overlapped identity
// configuration packs a schedule without carried work.
func TestOverlapIdentityConfigsCarryNothing(t *testing.T) {
	for _, mc := range overlapIdentityCases {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2} {
				cfg, blocks := overlapIdentityConfig(method, w, mc.k)
				cfg.OverlapRounds = true
				m, err := refModels[mc.model].make(blocks)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewWithConfig(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.EnableKFAC(kfac.DefaultOptions(), mc.k); err != nil {
					t.Fatal(err)
				}
				if err := e.reprice(2); err != nil {
					t.Fatal(err)
				}
				if hasCarrySchedule(e) {
					t.Fatalf("%s/%s/W%d K=%d: identity config carries work at the rounds' shape; realign it", mc.model, method, w, mc.k)
				}
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

// Partial carry: at the rounds' shape, a 4-stage window of a model with a
// 128-wide feed-forward layer holds part of the refresh — 128-wide factors
// inverting as chains — and the rest carries: 1F1B at K = 2, and Chimera,
// whose two pipelines fold and invert against both pools at once, at K = 4
// (its D·T_f + (2D−2)·T_b step leaves too little bubble for a partial carry
// at K ≤ 3: everything carries). The steady-state round executes BOTH
// generations — the window's own fitted refresh work and the previous
// generation's carried remainder — a chain's steps all in one, every layer
// folds once per generation, and every round trains exactly what the
// reference computes.
func TestOverlapPartialCarryExecutesBothGenerations(t *testing.T) {
	for _, pc := range []struct {
		method string
		k      int
	}{{"1f1b", 2}, {"chimera", 4}} {
		t.Run(pc.method, func(t *testing.T) {
			c := refCase{model: "bert-ffn128", every: pc.k, batch: 8, kernel: tensor.ActiveKernel(), cfg: Config{
				Method: pc.method, Stages: 4, MicroBatches: 4, RefreshSteps: pc.k, OverlapRounds: true,
			}}
			var exec [2]int // the last round's executed refresh events, per generation
			e, _ := requireMatchesReference(t, c, 3, nil, func(e *Engine) {
				exec = [2]int{}
				for _, evs := range e.LastTimeline().Events {
					for _, ev := range evs {
						if ev.Op.Kind.IsRefresh() {
							exec[ev.Op.Generation]++
						}
					}
				}
			})
			chainGen := make(map[[3]int]int) // (stage, factor, replica) -> generation of its chain steps
			var sched [2]int
			for _, op := range e.Schedule().Ops {
				if !op.Kind.IsRefresh() {
					continue
				}
				sched[op.Generation]++
				if op.Chain > 0 {
					key := [3]int{op.Stage, op.Factor, op.Replica}
					if g, ok := chainGen[key]; ok && g != op.Generation {
						t.Fatalf("stage %d factor %d: chain steps in generations %d and %d", op.Stage, op.Factor, g, op.Generation)
					}
					chainGen[key] = op.Generation
				}
			}
			if sched[0] == 0 || sched[1] == 0 || len(chainGen) == 0 {
				t.Fatalf("want a partial carry with chains at the rounds' shape, got gen0=%d gen1=%d chained factors=%d", sched[0], sched[1], len(chainGen))
			}
			if exec[0] == 0 || exec[1] == 0 {
				t.Fatalf("steady-state round must execute both generations, got gen0=%d gen1=%d events", exec[0], exec[1])
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
		})
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
	want, err := schedule.AdaptiveRoundLength(e.ScheduleConfig(e.priced))
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
