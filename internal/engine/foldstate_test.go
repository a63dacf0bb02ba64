package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestFoldHoldsOneBufferPerSum pins what the running-prefix fold saves: a
// contribution folds into its sum as soon as the micro-batches before it
// have, so a 1F1B, W = 1 K-FAC round — each stage's backwards and curvature
// ops on one device, in ascending micro-batch order — never holds more than
// one Gram partial per (stage, layer, factor) or one gradient delta set per
// stage outside the running sums. Holding every micro-batch's until its
// inversion or its stage's reduction, as a fold of N held buffers does,
// fails it. The state is read before every op, on the op's device, of the
// stages that device hosts — the only device that writes them — and after
// every round.
func TestFoldHoldsOneBufferPerSum(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
	// held counts, per stage, the delta sets and the most partials of any
	// one factor held outside their sums.
	held := func(s int) (deltas, partials int) {
		for _, step := range e.run.grads {
			for _, set := range step[s].parts {
				if set[0] != nil {
					deltas++
				}
			}
		}
		for _, pool := range e.kfacPools {
			for f := range pool.sums[s] {
				n := 0
				for _, p := range pool.sums[s][f].parts {
					if p[0] != nil {
						n++
					}
				}
				partials = max(partials, n)
			}
		}
		return deltas, partials
	}
	check := func(where string, s int) {
		t.Helper()
		if d, p := held(s); d > 1 || p > 1 {
			t.Errorf("%s: stage %d holds %d gradient delta sets and up to %d partials of one factor outside the running sums, want at most 1 each", where, s, d, p)
		}
	}
	var curvature atomic.Int32
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Curvature {
			curvature.Add(1)
		}
		for _, s := range e.sched.Placement.Hosted[op.Device] {
			check("before "+op.Label(), s)
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		if _, err := e.TrainRound([]*data.Batch{c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < e.Stages(); s++ {
			check("after the round", s)
		}
		if t.Failed() {
			return
		}
	}
	if curvature.Load() == 0 {
		t.Fatal("no curvature op ran: the rounds collected no partials to hold")
	}
}

// noOptState satisfies the round checkpoint's optimizer contract for an
// optimizer whose state no aborted round below touches: every abort comes
// before the round's first commit.
type noOptState struct{}

func (noOptState) StateLen() int       { return 0 }
func (noOptState) SaveState([]float64) {}
func (noOptState) LoadState([]float64) {}

// TestFoldStateRebuildsMatchReference: the prefix folds' state lives in the
// run state, which a re-price (a new micro-batch shape) and a
// Reconnect(g, true) rebuild, and in the generation pools, which a restore
// after an aborted round scrubs. The first round after each must match the
// engine reference bit for bit — for the restore, after an abort at step 0's
// commit anchor that left deltas folded and partials held.
func TestFoldStateRebuildsMatchReference(t *testing.T) {
	cases := []refCase{
		{model: "bert", every: 2, batch: 8, kernel: tensor.KernelTiled, cfg: Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2}},
		{model: "bert", every: 2, batch: 8, kernel: tensor.KernelTiled, cfg: Config{Method: "chimera", Stages: 2, MicroBatches: 4, RefreshSteps: 2}},
		{model: "gpt", every: 1, batch: 8, kernel: tensor.KernelTiled, cfg: Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2, RefreshSteps: 1, InversionParallel: true}},
	}
	for _, path := range []struct {
		name  string
		after func(t *testing.T, e *Engine)
	}{
		{"reprice", func(t *testing.T, e *Engine) {
			// The next round's micro-batches have another shape than the
			// packing's: it re-prices and rebuilds the schedule first.
			if err := e.reprice(e.microSeqs + 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"restore", func(t *testing.T, e *Engine) {
			e.failOp = func(op *pipeline.Op) error {
				if op.Kind == pipeline.OptStep && op.Step == 0 {
					return fmt.Errorf("injected abort before the first commit")
				}
				return nil
			}
			batches := refModels["bert"].batches
			if _, ok := e.sets[0].model.(*gpt.Model); ok {
				batches = refModels["gpt"].batches
			}
			if _, err := e.TrainRound(batches(t, e.RoundSteps(), 8)); err == nil {
				t.Fatal("the injected abort did not surface")
			}
			e.failOp = nil
			if _, err := e.RestoreCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"reconnect", func(t *testing.T, e *Engine) {
			if err := e.Reconnect(transport.Loopback{}, true); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for _, c := range cases {
			c.cfg.Checkpoint = path.name == "restore"
			t.Run(path.name+"/"+c.String(), func(t *testing.T) {
				requireMatchesReference(t, c, 3, func(e *Engine) {
					e.AttachOptimizerState(noOptState{})
				}, func(e *Engine) { path.after(t, e) })
			})
		}
	}
}

// TestCorruptionFollowsTheFold: under 1F1B a stage runs its backwards in
// ascending micro-batch order, so each backward's delta set folds into the
// primary's accumulators inside the op. A corruption injected at the first
// backward must poison the running sum it went into — not the slot it left
// — and be caught before the step commits.
func TestCorruptionFollowsTheFold(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "1f1b", Stages: 2, MicroBatches: 4,
		FaultPlan: mustParsePlan(t, "corrupt:step=0,op=backward,count=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.TrainStep(c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen)))
	if err == nil || !strings.Contains(err.Error(), "must not commit") {
		t.Fatalf("a corrupted backward whose delta had folded was not caught before the commit: %v", err)
	}
}
