package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bert"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// TestSlotsBitIdenticalToRecompute: no backward re-runs a forward — each
// in-flight micro-batch keeps its activations in a slot of its stage — and
// that changes which buffer holds an activation and nothing else. Over
// (model, schedule, W), serialized K = 1 rounds and overlapped K = 2 rounds,
// three rounds train exactly what the reference computes: one model running
// each micro-batch's forward straight into its backward.
func TestSlotsBitIdenticalToRecompute(t *testing.T) {
	var cases []refCase
	for _, model := range []string{"bert", "gpt"} {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2} {
				for _, k := range []int{1, 2} {
					cases = append(cases, refCase{model: model, every: k, batch: 16, kernel: tensor.ActiveKernel(), cfg: Config{
						Method: method, Stages: 2, MicroBatches: 4, Replicas: w,
						RefreshSteps: k, OverlapRounds: k > 1,
					}})
				}
			}
		}
	}
	for _, c := range cases {
		requireMatchesReference(t, c, 3, nil, nil)
	}
}

// An aborted round leaves every activation slot free and no pooled buffer
// stranded — stage 0's saved input is a pooled clone that exists only on
// this path — and the engine then trains exactly like one that never
// failed: the abort strikes 1F1B's first stage-0 backward, when two
// micro-batches hold slots there.
func TestSlotsFreeAfterAbort(t *testing.T) {
	cfg := Config{Method: "1f1b", Stages: 2, MicroBatches: 4}
	train := func(abort bool) (*bert.Model, float64) {
		m, err := bert.New(bert.TinyConfig(), 123)
		if err != nil {
			t.Fatal(err)
		}
		e := newKFACEngine(t, m, cfg, 1)
		batch := bertBatches(t, 1, 8)
		if abort {
			tensor.SetPoolAudit(true)
			defer tensor.SetPoolAudit(false)
			e.failOp = func(op *pipeline.Op) error {
				if op.Kind == pipeline.Backward && op.Stage == 0 && op.MicroBatch == 0 {
					if held := len(e.sets[0].stages[0].slots) - len(e.sets[0].stages[0].free); held != 2 {
						t.Errorf("%d micro-batches in flight at stage 0 when its first backward starts, want 2", held)
					}
					return fmt.Errorf("injected")
				}
				return nil
			}
			if _, err := e.TrainRound(batch); err == nil {
				t.Fatal("the injected backward failure did not surface")
			}
			e.failOp = nil
			if live := tensor.PoolLive(); live != 0 {
				t.Fatalf("%d pooled matrices leaked by the aborted round", live)
			}
			requireSlotsFree(t, e, "after the abort")
		}
		res, err := e.TrainRound(batch)
		if err != nil {
			t.Fatal(err)
		}
		if live := tensor.PoolLive(); abort && live != 0 {
			t.Fatalf("%d pooled matrices live after the recovery round", live)
		}
		return m, res[0].Loss.Total
	}
	clean, cleanLoss := train(false)
	recovered, loss := train(true)
	if math.Float64bits(loss) != math.Float64bits(cleanLoss) {
		t.Fatalf("loss after an aborted round %.17g, fresh engine %.17g", loss, cleanLoss)
	}
	requireParamsBitEqual(t, recovered.Params(), clean.Params(), "round after an abort vs fresh engine")
}

func requireSlotsFree(t *testing.T, e *Engine, context string) {
	t.Helper()
	for i, set := range e.sets {
		for _, stg := range set.stages {
			if len(stg.free) != len(stg.slots) {
				t.Fatalf("%s: module set %d stage %d has %d of %d activation slots free",
					context, i, stg.index, len(stg.free), len(stg.slots))
			}
		}
	}
}

// TestSlotHighWaterMatchesInFlightDepth is the executed half of
// pipeline.TestInFlightDepthGenerated: over methods × D {2, 4} × N × W ×
// round length, a real round's high-water activation-slot use per (module
// set, stage) is exactly the schedule's in-flight depth — the executed
// activation memory that perfmodel.MemoryModel's Act = N·Mact bounds from
// above, and "1F1B holds fewer activations than GPipe" — and every slot is
// free when the round ends.
func TestSlotHighWaterMatchesInFlightDepth(t *testing.T) {
	for _, method := range pipeline.Methods() {
		for _, d := range []int{2, 4} {
			for _, n := range []int{2, 4, 8} {
				for _, w := range []int{1, 2} {
					for _, steps := range []int{1, 3} {
						if pipeline.Feasible(method, d, n) == nil {
							requireExecutedDepth(t, Config{Method: method, Stages: d, MicroBatches: n, Replicas: w, RefreshSteps: steps})
						}
					}
				}
			}
		}
	}
}

// requireExecutedDepth trains one round and checks every (module set, stage)
// used exactly as many activation slots as the engine's schedule keeps in
// flight there, and gave them all back.
func requireExecutedDepth(t *testing.T, cfg Config) {
	t.Helper()
	name := fmt.Sprintf("%s/D%d/N%d/W%d/K%d", cfg.Method, cfg.Stages, cfg.MicroBatches, cfg.Replicas, cfg.RefreshSteps)
	mcfg := bert.TinyConfig()
	mcfg.Blocks = cfg.Stages
	m, err := bert.New(mcfg, 123)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cfg.RefreshSteps > 1 {
		// The multi-step rounds run the PipeFisher-packed executable, whose
		// device orders interleave refresh work; the one-step ones the plain
		// pipeline.
		if err := e.EnableKFAC(faultKFACOpts(), 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	e.SetOptimizer(func(int) error { return nil })
	if _, err := e.TrainRound(bertBatches(t, cfg.RefreshSteps, cfg.MicroBatches*cfg.Replicas)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	depth := e.Schedule().InFlightDepth()
	for s, owners := range e.Schedule().Placement.Owners {
		for i, o := range owners {
			stg := e.sets[e.setOf(o.Replica, o.Pipeline)].stages[s]
			if stg.peak != depth[s][i] || len(stg.slots) != depth[s][i] {
				t.Errorf("%s: replica %d pipeline %d stage %d used %d of %d activation slots, schedule keeps %d in flight",
					name, o.Replica, o.Pipeline, s, stg.peak, len(stg.slots), depth[s][i])
			}
		}
	}
	requireSlotsFree(t, e, name)
}
