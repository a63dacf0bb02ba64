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
	"repro/internal/hardware"
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
	m, err := refModels["bert-ffn128"].make(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(m.(*bert.Model).Config.VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*bert.Model), c
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
// every factor in one op does. In one-step rounds every inversion swaps its
// inverse in before its own step's precondition, however the packing cuts it,
// so losses, parameters and inverses must match bit for bit — gpipe, 1f1b
// and chimera, W 1 and 2, a refresh every other step — and each run must
// equal the reference.
func TestChainedInversionsBitIdenticalToWhole(t *testing.T) {
	for _, method := range pipeline.Methods() {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/W%d", method, w), func(t *testing.T) {
				c := refCase{model: "bert-ffn128", every: 2, batch: 8, kernel: tensor.ActiveKernel(),
					cfg: Config{Method: method, Stages: 2, MicroBatches: 4 / w, Replicas: w, RefreshSteps: 1}}
				train := func(chains bool) (*Engine, []float64) {
					var whole func(*Engine)
					if !chains {
						whole = func(e *Engine) {
							if err := e.price(c.batch / (c.cfg.MicroBatches * c.cfg.Replicas)); err != nil {
								t.Fatal(err)
							}
							e.priced.InversionChains = nil
							if err := e.rebuildSchedule(); err != nil {
								t.Fatal(err)
							}
						}
					}
					steps := 0
					e, losses := requireMatchesReference(t, c, 4, whole, func(e *Engine) { steps += chainEvents(e.LastTimeline()) })
					if chains != (steps > 0) {
						t.Fatalf("chains=%v engine executed %d chain steps", chains, steps)
					}
					return e, losses
				}
				ec, lc := train(true)
				ew, lw := train(false)
				for i := range lc {
					if math.Float64bits(lc[i]) != math.Float64bits(lw[i]) {
						t.Fatalf("step %d: chained loss %.17g, whole %.17g", i, lc[i], lw[i])
					}
				}
				requireParamsBitEqual(t, ec.sets[0].params, ew.sets[0].params, "chained vs whole inversions")
				for s := 0; s < ec.Stages(); s++ {
					for i, ls := range ec.KFACStates(s).States() {
						other := ew.KFACStates(s).States()[i]
						if !ls.Inverse(false, nil).Equal(other.Inverse(false, nil)) || !ls.Inverse(true, nil).Equal(other.Inverse(true, nil)) {
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
	if !ls.Inverse(true, nil).Equal(before[fmt.Sprintf("s0/%s", ls.Layer.Name)][1]) {
		t.Fatal("the degraded factor's inverse changed: the stale one must serve")
	}
	if ls.Inverse(false, nil).Equal(before[fmt.Sprintf("s0/%s", ls.Layer.Name)][0]) {
		t.Fatal("the degraded factor's pair did not refresh: only the failing factor may degrade")
	}
	other := e.KFACStates(0).States()[0]
	if other.Inverse(true, nil).Equal(before[fmt.Sprintf("s0/%s", other.Layer.Name)][1]) {
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
// is disarmed while it waits. In a two-step 1F1B K-FAC round, device 0
// (stage 0) reaches step 0's commit first and holds its next forward, which
// waits on nothing else, until device 1 arrives — its precondition stalled
// by injection — and commits, slowly. Device 0 waits well past the op
// deadline in total while every op, the commit included, stays inside it.
func TestWatchdogIdleWhileAwaitingCommit(t *testing.T) {
	m, c := newModelAndCorpus(t)
	const stall = 200 * time.Millisecond
	const timeout = 300 * time.Millisecond
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, fmt.Sprintf("stall:step=0,dev=1,op=precondition,delay=%v", stall)),
		OpTimeout: timeout,
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
	// Device 0 arrived at step 0's commit before device 1 did, and its next
	// base op started past the op deadline after that.
	tl := e.LastTimeline()
	var arrived, committing, next hardware.Microseconds = -1, -1, -1
	for _, ev := range tl.Events[0] {
		switch {
		case ev.Op.Kind == pipeline.OptStep && ev.Op.Step == 0:
			arrived = ev.End
		case arrived >= 0 && next < 0 && !ev.Op.Kind.IsRefresh():
			next = ev.Start
		}
	}
	for _, ev := range tl.Events[1] {
		if ev.Op.Kind == pipeline.OptStep && ev.Op.Step == 0 {
			committing = ev.Start
		}
	}
	if arrived < 0 || next < 0 || arrived > committing {
		t.Fatalf("device 0 did not reach step 0's commit first (arrived %d µs, device 1 at %d µs)", arrived, committing)
	}
	if wait := time.Duration(next-arrived) * time.Microsecond; wait <= timeout {
		t.Fatalf("device 0 waited %v for the commit, not past the %v op deadline: the test does not exercise the wait", wait, timeout)
	}
}
