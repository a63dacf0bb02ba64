package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipemodel"
)

// newSwapEngine builds an engine with K-FAC and an owned optimizer, the
// shape every hot-swap test drives.
func newSwapEngine(t *testing.T, m pipemodel.Model, cfg Config, kfacEvery int) *Engine {
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

// A hot-swap to the engine's *current* configuration must be invisible:
// the rebuilt schedule is deterministic and identical, no refresh state is
// touched, and training after the swap is bit-identical to never swapping
// — for BERT and GPT, all three schedule families, W in {1, 2}, through
// an overlapped refresh round (so generation pools and the carry queue
// are live across the swap point).
func TestReconfigureSameConfigBitIdentity(t *testing.T) {
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
					cfg := Config{
						Method: method, Stages: stages, MicroBatches: micro,
						Replicas: w, InversionParallel: w > 1, RefreshSteps: 2,
						OverlapRounds: true,
					}

					mRef, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					runRounds(t, mRef, batches, cfg, 2)

					mSwap, err := mc.make(blocks)
					if err != nil {
						t.Fatal(err)
					}
					e := newSwapEngine(t, mSwap, cfg, 2)
					if _, err := e.TrainRound(batches[:2]); err != nil {
						t.Fatal(err)
					}
					if err := e.Reconfigure(SwapConfig{
						Overlap:           true,
						InversionParallel: cfg.InversionParallel,
					}); err != nil {
						t.Fatalf("same-config swap failed: %v", err)
					}
					if e.refreshPending {
						t.Fatal("same-config swap forced a refresh")
					}
					if _, err := e.TrainRound(batches[2:]); err != nil {
						t.Fatal(err)
					}
					requireParamsBitEqual(t, mSwap.Params(), mRef.Params(), "same-config swap vs no swap")
				})
			}
		}
	}
}

// A swap that changes the schedule shape must discard in-flight refresh
// state (the pools and carried generations belong to the old schedule's
// carry structure) and force a full refresh, while parameters, optimizer
// state and counters survive and training continues.
func TestReconfigureChangedSwapForcesRefresh(t *testing.T) {
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	batches := bertBatches(t, 6, 8)
	cfg := Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, OverlapRounds: true}
	e := newSwapEngine(t, m, cfg, 2)
	if _, err := e.TrainRound(batches[:2]); err != nil {
		t.Fatal(err)
	}
	if err := e.Reconfigure(SwapConfig{RefreshSteps: 1}); err != nil {
		t.Fatal(err)
	}
	if e.RoundSteps() != 1 {
		t.Fatalf("RoundSteps = %d after swap to K=1", e.RoundSteps())
	}
	if !e.refreshPending {
		t.Fatal("changed swap did not force a refresh")
	}
	if e.carryPending() {
		t.Fatal("changed swap kept carried generations of the old schedule")
	}
	// The cadence rounds up to a multiple of the new K and the engine
	// keeps training.
	if re := e.RefreshEvery(); re%e.RoundSteps() != 0 {
		t.Fatalf("refresh cadence %d not a multiple of K=%d", re, e.RoundSteps())
	}
	for i := 2; i < len(batches); i++ {
		if _, err := e.TrainRound(batches[i : i+1]); err != nil {
			t.Fatalf("round after swap failed: %v", err)
		}
	}
}

// Invalid swaps are errors and leave the engine unchanged and running.
func TestReconfigureInvalidLeavesEngineIntact(t *testing.T) {
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	batches := bertBatches(t, 4, 8)
	cfg := Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2}
	e := newSwapEngine(t, m, cfg, 2)
	if _, err := e.TrainRound(batches[:2]); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]SwapConfig{
		"negative K":            {RefreshSteps: -1},
		"carry without overlap": {CarryDepth: 3},
		"unknown method":        {Method: "bogus"},
	} {
		if err := e.Reconfigure(sc); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if e.Method() != "1f1b" || e.RoundSteps() != 2 {
		t.Fatalf("failed swap mutated the engine: %s K=%d", e.Method(), e.RoundSteps())
	}
	if _, err := e.TrainRound(batches[2:]); err != nil {
		t.Fatalf("engine broken after rejected swaps: %v", err)
	}
}

// A round that aborts right after a swap rolls back through the round
// checkpoint: restore rewinds to the round boundary the swap happened at,
// and the replay — running the new schedule — lands bit-identical to a
// fault-free run that swapped at the same boundary.
func TestReconfigureAbortedRoundRollsBack(t *testing.T) {
	batches := bertBatches(t, 4, 8)
	swap := SwapConfig{Overlap: true} // serialized -> overlapped at the boundary

	mRef, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, Checkpoint: true}
	ref := newSwapEngine(t, mRef, cfg, 2)
	if _, err := ref.TrainRound(batches[:2]); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reconfigure(swap); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainRound(batches[2:]); err != nil {
		t.Fatal(err)
	}

	mF, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	// Absolute step 3 is the post-swap round's second step: the swapped
	// schedule runs, commits its first step, then aborts mid-round.
	fcfg.FaultPlan = mustParsePlan(t, "fail:step=3,op=backward,count=1")
	e := newSwapEngine(t, mF, fcfg, 2)
	if _, err := e.TrainRound(batches[:2]); err != nil {
		t.Fatal(err)
	}
	if err := e.Reconfigure(swap); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainRound(batches[2:]); err == nil {
		t.Fatal("injected abort did not surface")
	}
	replayFrom, err := e.RestoreCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if replayFrom != 2 {
		t.Fatalf("restore rewound to step %d, want 2 (the swap boundary)", replayFrom)
	}
	if _, err := e.TrainRound(batches[2:]); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	requireParamsBitEqual(t, mF.Params(), mRef.Params(), "aborted swap round replay vs fault-free swap")
}

// Deep carry end to end: with a cost model that starves the carried
// generation's curvature, CarryDepth 3 produces generation-2 ops, the
// engine sizes its pool set and carry queue for them, trains through
// several refresh rounds, and drains carried generations without leaking.
func TestEngineDeepCarryTrains(t *testing.T) {
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	batches := bertBatches(t, 8, 8)
	cfg := Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1,
		OverlapRounds: true, CarryDepth: 3,
	}
	e := newSwapEngine(t, m, cfg, 1)
	costs := e.ModeledCosts()
	costs.CurvaturePerMicroBatch = 0
	for i := range costs.CurvatureUnits {
		costs.CurvatureUnits[i] *= 40
		costs.CurvaturePerMicroBatch += costs.CurvatureUnits[i]
		costs.InversionUnits[i] *= 10
	}
	if err := e.Reconfigure(SwapConfig{Overlap: true, CarryDepth: 3, Costs: &costs}); err != nil {
		t.Fatal(err)
	}
	maxGen := 0
	for _, op := range e.Schedule().Ops {
		if op.Generation > maxGen {
			maxGen = op.Generation
		}
	}
	if maxGen != 2 {
		t.Fatalf("max generation = %d, want 2 (deep carry engaged)", maxGen)
	}
	if e.maxCarryGen != 2 || len(e.carryQ) != 2 || len(e.kfacPools) < 3 {
		t.Fatalf("carry bookkeeping wrong: maxCarryGen=%d len(carryQ)=%d pools=%d",
			e.maxCarryGen, len(e.carryQ), len(e.kfacPools))
	}
	var sawCarry bool
	for i := range batches {
		res, err := e.TrainRound(batches[i : i+1])
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		for _, r := range res {
			if r.Loss.Total != r.Loss.Total {
				t.Fatalf("round %d: loss went NaN", i)
			}
		}
		if e.carryPending() {
			sawCarry = true
		}
	}
	if !sawCarry {
		t.Fatal("no generation was ever carried across rounds")
	}
	for _, p := range m.Params() {
		if v := p.Value.MaxAbs(); v != v {
			t.Fatalf("parameter %s went NaN under deep carry", p.Name)
		}
	}
}

// The swap surface rejects front-load/overlap contradictions through the
// normalize path with a readable error.
func TestReconfigureErrorText(t *testing.T) {
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	e := newSwapEngine(t, m, Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1}, 1)
	if err := e.Reconfigure(SwapConfig{Overlap: true, CarryDepth: 1}); err == nil ||
		!strings.Contains(err.Error(), "CarryDepth") {
		t.Fatalf("CarryDepth 1 not rejected usefully: %v", err)
	}
}
