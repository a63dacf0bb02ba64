package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// chainBERT is the tiny BERT with a 128-wide feed-forward layer: at two
// sequences per micro-batch its 128 x 128 factors (the first feed-forward
// layer's B, the second's A — factors 9 and 10 of a block) cost more than a
// stage forward to invert, so the engine's shape-priced packing inverts them
// as chains.
func chainBERT(t *testing.T) (*bert.Model, *data.Corpus) {
	t.Helper()
	cfg := bert.TinyConfig()
	cfg.DFF = 128
	m, err := bert.New(cfg, 123)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(cfg.VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// roundBatches draws one round of batches of the given size.
func roundBatches(c *data.Corpus, k, size, seqLen int) []*data.Batch {
	out := make([]*data.Batch, k)
	for j := range out {
		out[j] = c.MakeBatch(size, data.DefaultBatchConfig(seqLen))
	}
	return out
}

// chainEvents counts the executed inversion-chain steps of a timeline.
func chainEvents(tl *pipeline.Timeline) int {
	n := 0
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if ev.Op.Kind == pipeline.Inversion && ev.Op.Chain > 0 {
				n++
			}
		}
	}
	return n
}

// An engine whose wide factors invert as chains computes what one inverting
// every factor in one op does: with the refresh front-loaded, every step
// preconditions with the inverses of its own window whatever the packing,
// so losses, parameters and inverses must match bit for bit — gpipe, 1f1b
// and chimera, W 1 and 2.
func TestChainedInversionsBitIdenticalToWhole(t *testing.T) {
	for _, method := range pipeline.Methods() {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/W%d", method, w), func(t *testing.T) {
				cfg := Config{Method: method, Stages: 2, MicroBatches: 4 / w, Replicas: w, RefreshSteps: 2, FrontLoadRefresh: true}
				train := func(chains bool) (*bert.Model, []float64, *Engine) {
					m, c := chainBERT(t)
					e := newSwapEngine(t, m, cfg, 2)
					if !chains {
						costs := e.ModeledCosts()
						costs.InversionChains = nil
						if err := e.Reconfigure(e.Shape(), &costs); err != nil {
							t.Fatal(err)
						}
					}
					opt := optim.NewLAMB(m.Params(), 0.01)
					e.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
					var losses []float64
					for r := 0; r < 3; r++ {
						res, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen))
						if err != nil {
							t.Fatal(err)
						}
						for _, sr := range res {
							losses = append(losses, sr.Loss.Total)
						}
						if got := chainEvents(e.LastTimeline()); chains != (got > 0) {
							t.Fatalf("chains=%v engine executed %d chain steps", chains, got)
						}
					}
					return m, losses, e
				}
				mc, lc, ec := train(true)
				mw, lw, ew := train(false)
				for i := range lc {
					if math.Float64bits(lc[i]) != math.Float64bits(lw[i]) {
						t.Fatalf("step %d: chained loss %.17g, whole %.17g", i, lc[i], lw[i])
					}
				}
				requireParamsBitEqual(t, mc.Params(), mw.Params(), "chained vs whole inversions")
				for s := 0; s < ec.Stages(); s++ {
					for i, ls := range ec.KFACStates(s).States() {
						other := ew.KFACStates(s).States()[i]
						if !ls.AInv.Equal(other.AInv) || !ls.BInv.Equal(other.BInv) {
							t.Fatalf("stage %d layer %s: chained inverses differ", s, ls.Layer.Name)
						}
					}
				}
			})
		}
	}
}

// A chain step that fails past its retries degrades its factor alone: the
// chain's later steps do nothing, the factor's stale inverse keeps serving,
// every other factor refreshes, the round reports the degradation, and the
// chain's pooled work buffers go back to the pool.
func TestChainStepDegradesOnlyItsFactor(t *testing.T) {
	m, c := chainBERT(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, OpRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
	tensor.SetPoolAudit(true)
	defer tensor.SetPoolAudit(false)
	if _, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen)); err != nil {
		t.Fatal(err)
	}
	base := tensor.PoolLive()
	before := cloneInverses(e)
	const factor, step = 9, 3 // layer 4's B: the first feed-forward layer's output side
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Inversion && op.Stage == 0 && op.Factor == factor && op.Chain == step {
			return fmt.Errorf("injected chain fault")
		}
		return nil
	}
	res, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen))
	if err != nil {
		t.Fatal(err)
	}
	e.failOp = nil
	if !res[0].Degraded || !strings.Contains(res[0].DegradedReason, "injected chain fault") {
		t.Fatalf("round not reported degraded by the chain fault: %+v", res[0])
	}
	for d := range e.LastTimeline().Events {
		for _, ev := range e.LastTimeline().Events[d] {
			if ev.Op.Kind == pipeline.Inversion && ev.Op.Stage == 0 && ev.Op.Factor == factor && ev.Op.Chain > step {
				t.Fatalf("chain step %d ran after step %d degraded", ev.Op.Chain, step)
			}
		}
	}
	ls := e.KFACStates(0).States()[factor/2]
	if !ls.BInv.Equal(before[fmt.Sprintf("s0/%s", ls.Layer.Name)][1]) {
		t.Fatal("the degraded factor's inverse changed: the stale one must serve")
	}
	if ls.AInv.Equal(before[fmt.Sprintf("s0/%s", ls.Layer.Name)][0]) {
		t.Fatal("the degraded factor's pair did not refresh: only the failing factor may degrade")
	}
	other := e.KFACStates(0).States()[0]
	if other.BInv.Equal(before[fmt.Sprintf("s0/%s", other.Layer.Name)][1]) {
		t.Fatal("an unrelated factor did not refresh")
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("PoolLive %d after the degraded chain, steady state %d", live, base)
	}
	if _, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen)); err != nil {
		t.Fatalf("engine unusable after the degraded chain: %v", err)
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("PoolLive %d after the recovery round, steady state %d", live, base)
	}
}

// An op that runs while a step's commit is pending and fails surfaces its
// error only once the commit resolved: the step commits and counts, as it
// did when every device parked at the barrier. The devices of stage 1 reach
// step 0's commit first and run step 1's curvature right after it; the
// commit itself is slowed down, so the failure provably lands before it.
func TestCommitPendingErrorSurfacesAfterCommit(t *testing.T) {
	m, c := chainBERT(t)
	e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2, InversionParallel: true, RefreshSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	var committed, ranInside atomic.Bool
	e.SetOptimizer(func(step int) error {
		if step == 0 {
			time.Sleep(30 * time.Millisecond)
			defer committed.Store(true)
		}
		opt.Step(5e-3)
		return nil
	})
	e.failOp = func(op *pipeline.Op) error {
		if op.Step == 1 && op.Kind.IsRefresh() && !committed.Load() {
			ranInside.Store(true)
			return fmt.Errorf("injected pending-commit fault")
		}
		return nil
	}
	res, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen))
	if !ranInside.Load() {
		t.Fatal("no refresh op ran while step 0's commit was pending")
	}
	if err == nil || !strings.Contains(err.Error(), "injected pending-commit fault") {
		t.Fatalf("error %v does not name the failing op", err)
	}
	if len(res) != 1 {
		t.Fatalf("%d steps committed, want 1: the failure surfaced before the pending commit resolved", len(res))
	}
	e.failOp = nil
	if _, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen)); err != nil {
		t.Fatalf("engine unusable after the abort: %v", err)
	}
}

// A device waiting for a pending commit is not stalled: its watchdog slot
// is disarmed while it waits. With the refresh front-loaded, device 0 (stage
// 0) reaches step 0's commit first and holds its next forward, which waits on
// nothing else, until the commit resolved; device 1 arrives late — its
// precondition stalled by injection — and commits slowly. Device 0 waits well
// past the op deadline in total while every op, the commit included, stays
// inside it.
func TestWatchdogIdleWhileAwaitingCommit(t *testing.T) {
	m, c := chainBERT(t)
	const stall = 200 * time.Millisecond
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, FrontLoadRefresh: true,
		FaultPlan: mustParsePlan(t, fmt.Sprintf("stall:step=0,dev=1,op=precondition,delay=%v", stall)),
		OpTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		if step == 0 {
			time.Sleep(stall)
		}
		opt.Step(5e-3)
		return nil
	})
	if _, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen)); err != nil {
		t.Fatalf("a device waiting for a pending commit was treated as stalled: %v", err)
	}
}
