package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// faultKFACOpts mirrors runRounds' K-FAC options so fault-path runs stay
// comparable to the fault-free baselines bit for bit.
func faultKFACOpts() kfac.Options {
	return kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}
}

func mustParsePlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cloneInverses snapshots every layer's cached inverse matrices, keyed so a
// degraded round's "served inverses unchanged" claim is checkable exactly.
func cloneInverses(e *Engine) map[string][2]*tensor.Matrix {
	out := map[string][2]*tensor.Matrix{}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if !ls.HasInverses() {
				continue
			}
			key := fmt.Sprintf("s%d/%s", s, ls.Layer.Name)
			out[key] = [2]*tensor.Matrix{ls.AInv.Clone(), ls.BInv.Clone()}
		}
	}
	return out
}

func inversesEqual(e *Engine, snap map[string][2]*tensor.Matrix) bool {
	n := 0
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if !ls.HasInverses() {
				continue
			}
			n++
			key := fmt.Sprintf("s%d/%s", s, ls.Layer.Name)
			prev, ok := snap[key]
			if !ok || !ls.AInv.Equal(prev[0]) || !ls.BInv.Equal(prev[1]) {
				return false
			}
		}
	}
	return n == len(snap)
}

// Every op kind the executor runs must abort with the root cause attributed
// to its device and op when it fails without any resilience configured —
// never as a bare round-abort marker. W = 2 with inversion-parallel
// sharding and a K-FAC refresh round puts every kind in the schedule,
// collectives included.
func TestAbortAttributionEveryOpKind(t *testing.T) {
	cfg := Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2,
		InversionParallel: true, RefreshSteps: 2,
	}
	m, _ := newModelAndCorpus(t)
	probe, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	kindSet := map[pipeline.WorkKind]bool{}
	for _, op := range probe.Schedule().Ops {
		kindSet[op.Kind] = true
	}
	var kinds []pipeline.WorkKind
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	if len(kinds) < 6 {
		t.Fatalf("probe schedule has only %d op kinds (%v); sweep would not cover the executor", len(kinds), kinds)
	}

	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			m, c := newModelAndCorpus(t)
			e, err := NewWithConfig(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
				t.Fatal(err)
			}
			opt := optim.NewLAMB(m.Params(), 0.01)
			e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
			mk := func() []*data.Batch {
				out := make([]*data.Batch, 2)
				for j := range out {
					out[j] = c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
				}
				return out
			}
			marker := fmt.Sprintf("injected %s fault", kind)
			e.failOp = func(op *pipeline.Op) error {
				if op.Kind == kind {
					return fmt.Errorf("%s", marker)
				}
				return nil
			}
			_, err = e.TrainRound(mk())
			if err == nil {
				t.Fatalf("%s failure did not abort the round", kind)
			}
			if !strings.Contains(err.Error(), marker) {
				t.Fatalf("root cause lost: %v does not contain %q", err, marker)
			}
			if !strings.Contains(err.Error(), "device ") {
				t.Fatalf("error %v does not attribute a device", err)
			}
			e.failOp = nil
			if _, err := e.TrainRound(mk()); err != nil {
				t.Fatalf("engine unusable after %s abort: %v", kind, err)
			}
		})
	}
}

// An injector-driven failure must name the full injection point — step,
// device, op kind, micro-batch — in the surfaced error, so a chaos run's
// abort is attributable to the plan entry that caused it.
func TestInjectedFaultNamesInjectionPoint(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, "fail:step=1,op=backward,count=1"),
	})
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
	_, err = e.TrainRound(mk())
	if err == nil {
		t.Fatal("injected backward failure did not abort")
	}
	for _, want := range []string{"step 1", "op backward", "device", "injected failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	// The count-limited fault is consumed: the engine recovers cleanly.
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatalf("engine unusable after injected abort: %v", err)
	}
}

// The degradation ladder's middle rung: a refresh whose curvature ops fail
// past the retry budget degrades instead of aborting — the round commits,
// the previous generation's inverses keep serving unchanged (§3.1 staleness
// extended across failures), the generation counter does not advance, and
// the next round re-runs a full refresh that delivers.
func TestDegradedRefreshServesStaleAndRecovers(t *testing.T) {
	m, c := newModelAndCorpus(t)
	// Absolute steps 2 and 3 are round 1: its whole refresh fails.
	plan := mustParsePlan(t, "fail:step=2,op=curvature;fail:step=3,op=curvature")
	e, err := NewWithConfig(m, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: plan, OpRetries: 1, RetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
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

	// Round 0: clean refresh delivers generation 1.
	res, err := e.TrainRound(mk())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Degraded || !res[0].Refreshed {
		t.Fatalf("clean round misreported: %+v", res[0])
	}
	gen0 := e.kfacGen
	snap := cloneInverses(e)
	if len(snap) == 0 {
		t.Fatal("no inverses delivered by the clean refresh")
	}

	// Round 1: every curvature op fails past its retry; the round degrades
	// but commits.
	res, err = e.TrainRound(mk())
	if err != nil {
		t.Fatalf("degraded round must commit, got %v", err)
	}
	if !res[0].Degraded {
		t.Fatal("round with failed refresh not marked degraded")
	}
	if !strings.Contains(res[0].DegradedReason, "curvature") {
		t.Fatalf("degraded reason %q does not name the failed op kind", res[0].DegradedReason)
	}
	if !strings.Contains(res[0].DegradedReason, "device") {
		t.Fatalf("degraded reason %q does not attribute a device", res[0].DegradedReason)
	}
	if e.kfacGen != gen0 {
		t.Fatalf("degraded refresh advanced the generation: %d -> %d", gen0, e.kfacGen)
	}
	if !inversesEqual(e, snap) {
		t.Fatal("degraded round changed the served inverses; it must keep the stale generation")
	}

	// Round 2: the plan is exhausted; the re-run refresh delivers a new
	// generation.
	res, err = e.TrainRound(mk())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Degraded {
		t.Fatalf("recovery round degraded: %s", res[0].DegradedReason)
	}
	if e.kfacGen != gen0+1 {
		t.Fatalf("recovery refresh did not advance the generation: %d -> %d", gen0, e.kfacGen)
	}
	if inversesEqual(e, snap) {
		t.Fatal("recovery refresh did not update the inverses")
	}
}

// The ladder's bottom rung: when no generation was ever delivered (the very
// first refresh degrades), preconditioning falls back to the raw gradient —
// the degraded K-FAC engine's parameters match a plain (no K-FAC) engine
// bit for bit.
func TestDegradedFirstRefreshRunsUnpreconditioned(t *testing.T) {
	batches := bertBatches(t, 2, 4)
	mk := func() (*bert.Model, error) { return bert.New(bert.TinyConfig(), 123) }

	mA, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(mA, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, "fail:op=curvature"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	optA := optim.NewLAMB(mA.Params(), 0.01)
	e.SetOptimizer(func(step int) error { optA.Step(5e-3); return nil })
	res, err := e.TrainRound(batches)
	if err != nil {
		t.Fatalf("fully degraded refresh must still commit, got %v", err)
	}
	if !res[0].Degraded {
		t.Fatal("round with no delivered generation not marked degraded")
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.HasInverses() {
				t.Fatalf("stage %d layer %q has inverses despite the degraded refresh", s, ls.Layer.Name)
			}
		}
	}

	mB, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, mB, batches, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2}, 0)
	requireParamsBitEqual(t, mA.Params(), mB.Params(), "degraded K-FAC vs plain SGD path")
}

// A transient side-path failure inside the retry budget is absorbed
// entirely: the round commits undegraded, and the executed timeline records
// the retry count on the recovered op.
func TestTransientFaultRetriesAndRecords(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, "fail:op=curvature,count=1"),
		OpRetries: 2, RetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	res, err := e.TrainRound([]*data.Batch{
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
	})
	if err != nil {
		t.Fatalf("transient fault within the retry budget aborted the round: %v", err)
	}
	if res[0].Degraded {
		t.Fatalf("transient fault degraded the round: %s", res[0].DegradedReason)
	}
	if !res[0].Refreshed {
		t.Fatal("refresh round did not deliver despite the successful retry")
	}
	tl := e.LastTimeline()
	retried := 0
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Retries > 0 {
				if ev.Op.Kind != pipeline.Curvature {
					t.Fatalf("retry recorded on %s, want curvature", ev.Op.Kind)
				}
				retried++
			}
		}
	}
	if retried != 1 {
		t.Fatalf("%d events carry a retry count, want exactly 1", retried)
	}
}

// The watchdog converts a silent stall into an attributed failure: a device
// sleeping far past the op deadline is failed with the stalled device and
// op named, the abort unparks everyone, and the engine stays usable.
func TestWatchdogConvertsStallIntoAttributedAbort(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, "stall:step=0,op=forward,micro=0,delay=2s,count=1"),
		OpTimeout: 150 * time.Millisecond,
	})
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
	start := time.Now()
	_, err = e.TrainRound(mk())
	if err == nil {
		t.Fatal("stalled round did not abort")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("stall not attributed by the watchdog: %v", err)
	}
	// The abort-aware stall unparks on the watchdog abort: the round must
	// return well before the injected 2s delay elapses.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("watchdog abort took %v; the stalled wait did not unpark", elapsed)
	}
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatalf("engine unusable after watchdog abort: %v", err)
	}
}

// Injected numeric corruption must never commit: the pre-commit health scan
// converts the poisoned step into an attributed abort, and checkpoint
// replay recovers a clean, fault-free state.
func TestCorruptionCaughtBeforeCommit(t *testing.T) {
	for _, spec := range []string{
		"corrupt:step=0,op=backward,count=1",
		"corrupt:step=0,op=forward,count=1",
	} {
		t.Run(spec, func(t *testing.T) {
			m, c := newModelAndCorpus(t)
			e, err := NewWithConfig(m, Config{
				Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
				FaultPlan: mustParsePlan(t, spec), Checkpoint: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
				t.Fatal(err)
			}
			opt := optim.NewLAMB(m.Params(), 0.01)
			e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
			e.AttachOptimizerState(opt)
			mk := func() []*data.Batch {
				return []*data.Batch{
					c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
					c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
				}
			}
			batches := mk()
			_, err = e.TrainRound(batches)
			if err == nil {
				t.Fatal("corrupted step committed")
			}
			if !strings.Contains(err.Error(), "must not commit") {
				t.Fatalf("corruption not caught by the health scan: %v", err)
			}
			if _, rerr := e.RestoreCheckpoint(); rerr != nil {
				t.Fatal(rerr)
			}
			if _, err := e.TrainRound(batches); err != nil {
				t.Fatalf("replay after corruption abort failed: %v", err)
			}
			for _, p := range m.Params() {
				if p.Value.HasNaN() {
					t.Fatalf("parameter %s poisoned despite the health scan", p.Name)
				}
			}
		})
	}
}

// Corrupted curvature statistics must never reach the preconditioner's
// EMA: the pre-fold guard fails the inversion before SetFactors, the retry
// re-sums the still-poisoned partials, and the refresh degrades — stale
// inverses keep serving, long-lived K-FAC state stays clean.
func TestCorruptCurvatureDegradesBeforeFold(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{
		Method: "gpipe", Stages: 2, MicroBatches: 2, RefreshSteps: 2,
		FaultPlan: mustParsePlan(t, "corrupt:op=curvature,count=1"),
		OpRetries: 1, RetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	res, err := e.TrainRound([]*data.Batch{
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
	})
	if err != nil {
		t.Fatalf("corrupt curvature must degrade, not abort: %v", err)
	}
	if !res[0].Degraded {
		t.Fatal("round with corrupted curvature statistics not marked degraded")
	}
	if !strings.Contains(res[0].DegradedReason, "NaN/Inf in folded curvature factors") {
		t.Fatalf("degraded reason %q does not name the pre-fold guard", res[0].DegradedReason)
	}
	// Nothing poisoned escaped into long-lived state: the EMA was never
	// touched, so the re-run refresh delivers finite inverses.
	res, err = e.TrainRound([]*data.Batch{
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
		c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen)),
	})
	if err != nil || res[0].Degraded {
		t.Fatalf("recovery round failed: err=%v degraded=%v", err, res[0].Degraded)
	}
	for s := 0; s < e.Stages(); s++ {
		for _, ls := range e.KFACStates(s).States() {
			if ls.HasInverses() && (ls.AInv.HasNaN() || ls.BInv.HasNaN()) {
				t.Fatalf("stage %d layer %q: poisoned inverse escaped the pre-fold guard", s, ls.Layer.Name)
			}
		}
	}
}

// The acceptance property of round checkpoint/replay: after an injected
// base-path abort, restore-and-replay reproduces the fault-free run's
// parameters bit-identically — for BERT and GPT, every schedule method,
// W in {1, 2}, with K-FAC refresh rounds. Replaying rewinds the aborted
// round's committed steps too: the checkpoint is the round's start.
func TestCheckpointReplayBitIdentity(t *testing.T) {
	type modelCase struct {
		name    string
		make    func() (pipemodel.Model, error)
		batches func(t *testing.T, n, size int) []*data.Batch
	}
	cases := []modelCase{
		{"bert", func() (pipemodel.Model, error) { return bert.New(bert.TinyConfig(), 123) }, bertBatches},
		{"gpt", func() (pipemodel.Model, error) { return gpt.New(gpt.TinyConfig(), 99) }, gptBatches},
	}
	for _, mc := range cases {
		for _, method := range []string{"gpipe", "1f1b", "chimera"} {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/W%d", mc.name, method, w), func(t *testing.T) {
					micro := 4 / w
					if method == "chimera" {
						micro = 4
					}
					batches := mc.batches(t, 4, 2*micro*w)
					base := Config{Method: method, Stages: 2, MicroBatches: micro, Replicas: w, RefreshSteps: 2}

					mRef, err := mc.make()
					if err != nil {
						t.Fatal(err)
					}
					runRounds(t, mRef, batches, base, 2)

					mF, err := mc.make()
					if err != nil {
						t.Fatal(err)
					}
					cfg := base
					// Absolute step 3 is the second round's second step: the
					// round commits step 2, then aborts — replay must rewind
					// the committed step too.
					cfg.FaultPlan = mustParsePlan(t, "fail:step=3,op=backward,count=1")
					cfg.Checkpoint = true
					e, err := NewWithConfig(mF, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
						t.Fatal(err)
					}
					opt := optim.NewLAMB(mF.Params(), 0.01)
					e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
					e.AttachOptimizerState(opt)

					if _, err := e.TrainRound(batches[:2]); err != nil {
						t.Fatalf("fault-free first round failed: %v", err)
					}
					if _, err := e.TrainRound(batches[2:]); err == nil {
						t.Fatal("injected abort did not surface")
					}
					replayFrom, err := e.RestoreCheckpoint()
					if err != nil {
						t.Fatal(err)
					}
					if replayFrom != 2 {
						t.Fatalf("restore rewound to step %d, want 2 (the aborted round's start)", replayFrom)
					}
					if _, err := e.TrainRound(batches[2:]); err != nil {
						t.Fatalf("replay failed: %v", err)
					}
					requireParamsBitEqual(t, mF.Params(), mRef.Params(), "checkpoint replay vs fault-free")
				})
			}
		}
	}
}

// RestoreCheckpoint's preconditions are explicit errors, not silent
// misbehavior: it needs Config.Checkpoint, a saved checkpoint, and —
// when an optimizer is attached — its state registered before the round.
func TestCheckpointPreconditions(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RestoreCheckpoint(); err == nil || !strings.Contains(err.Error(), "Config.Checkpoint") {
		t.Fatalf("restore without Checkpoint must fail clearly, got %v", err)
	}

	e2, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RestoreCheckpoint(); err == nil || !strings.Contains(err.Error(), "no round checkpoint") {
		t.Fatalf("restore before any round must fail clearly, got %v", err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e2.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	// Optimizer attached but its state not registered: the round must refuse
	// rather than checkpoint a state it cannot restore.
	if _, err := e2.TrainRound([]*data.Batch{c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))}); err == nil ||
		!strings.Contains(err.Error(), "AttachOptimizerState") {
		t.Fatalf("Checkpoint without AttachOptimizerState must fail clearly, got %v", err)
	}
}

// Aborts anywhere in the round must leak nothing from the workspace pool:
// with the audit on, the live-buffer count between rounds returns to its
// steady-state baseline after an abort at every (step, op kind) present in
// the schedule. W = 2 + inversion-parallel + K-FAC puts every op kind and
// both rollback paths (clones, carried generations, partial folds) in play;
// the K = 4 Chimera round aborts after one, two and three committed steps —
// whose carried rollback clones went back to the pool at their commits, not
// at the round's end — across both directions' module sets.
func TestPoolAuditNoLeakOnAbortAnywhere(t *testing.T) {
	for _, cfg := range []Config{
		{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2, InversionParallel: true, RefreshSteps: 2},
		{Method: "chimera", Stages: 2, MicroBatches: 2, Replicas: 2, ShardParams: true, RefreshSteps: 4},
	} {
		t.Run(fmt.Sprintf("%s/K%d", cfg.Method, cfg.RefreshSteps), func(t *testing.T) {
			testPoolAuditNoLeakOnAbortAnywhere(t, cfg)
		})
	}
}

func testPoolAuditNoLeakOnAbortAnywhere(t *testing.T, cfg Config) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), cfg.RefreshSteps); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	mk := func() []*data.Batch {
		out := make([]*data.Batch, cfg.RefreshSteps)
		for j := range out {
			out[j] = c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		}
		return out
	}

	tensor.SetPoolAudit(true)
	defer tensor.SetPoolAudit(false)

	// Two clean rounds reach the steady state; a third proves the baseline
	// is stable before any fault is injected.
	for i := 0; i < 2; i++ {
		if _, err := e.TrainRound(mk()); err != nil {
			t.Fatal(err)
		}
	}
	base := tensor.PoolLive()
	if base != 0 {
		t.Fatalf("%d pooled buffers live between clean serialized rounds, want 0", base)
	}
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatal(err)
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("steady-state live count drifted between clean rounds: %d -> %d", base, live)
	}

	type point struct {
		step int
		kind pipeline.WorkKind
	}
	seen := map[point]bool{}
	var points []point
	for _, op := range e.Schedule().Ops {
		p := point{op.Step, op.Kind}
		if !seen[p] {
			seen[p] = true
			points = append(points, p)
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].step != points[j].step {
			return points[i].step < points[j].step
		}
		return points[i].kind < points[j].kind
	})

	for _, p := range points {
		p := p
		e.failOp = func(op *pipeline.Op) error {
			if op.Kind == p.kind && op.Step == p.step {
				return fmt.Errorf("injected abort at step %d kind %s", p.step, p.kind)
			}
			return nil
		}
		res, err := e.TrainRound(mk())
		if err == nil {
			t.Fatalf("abort at step %d kind %s did not surface", p.step, p.kind)
		}
		if len(res) != p.step {
			t.Fatalf("abort at step %d kind %s: %d steps committed before it, want %d", p.step, p.kind, len(res), p.step)
		}
		if live := tensor.PoolLive(); live != base {
			t.Fatalf("pool leak after abort at step %d kind %s: %d live buffers, baseline %d",
				p.step, p.kind, live, base)
		}
	}
	e.failOp = nil
	if _, err := e.TrainRound(mk()); err != nil {
		t.Fatalf("engine unusable after the abort sweep: %v", err)
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("pool leak after the recovery round: %d live, baseline %d", live, base)
	}
}

// Seeded chaos soak: randomized fault plans (failures, stalls, drops,
// corruption at random points) against every schedule method, W in {1, 2},
// overlap on and off, with the full resilience stack enabled — retries,
// watchdog, degradation, checkpoint replay. Every round must either commit
// or recover via replay, and the parameters must stay finite. Runs under
// -race in CI's chaos job; skipped with -short.
func TestRandomFaultPlanSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	configs := []struct {
		method  string
		w       int
		overlap bool
	}{
		{"gpipe", 1, false},
		{"gpipe", 2, true},
		{"1f1b", 2, false},
		{"1f1b", 1, true},
		{"chimera", 1, true},
		{"chimera", 2, false},
	}
	for i, tc := range configs {
		t.Run(fmt.Sprintf("%s/W%d/overlap=%v", tc.method, tc.w, tc.overlap), func(t *testing.T) {
			micro := 4 / tc.w
			if tc.method == "chimera" {
				micro = 4
			}
			m, err := bert.New(bert.TinyConfig(), 123)
			if err != nil {
				t.Fatal(err)
			}
			c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
			if err != nil {
				t.Fatal(err)
			}
			plan := faults.Random(int64(1000+i), 4, 6, 2*tc.w)
			e, err := NewWithConfig(m, Config{
				Method: tc.method, Stages: 2, MicroBatches: micro, Replicas: tc.w,
				InversionParallel: tc.w > 1, RefreshSteps: 2, OverlapRounds: tc.overlap,
				FaultPlan: plan, OpRetries: 1, RetryBackoff: 200 * time.Microsecond,
				OpTimeout: 5 * time.Second, Checkpoint: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
				t.Fatal(err)
			}
			opt := optim.NewLAMB(m.Params(), 0.01)
			e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
			e.AttachOptimizerState(opt)
			for round := 0; round < 3; round++ {
				batches := make([]*data.Batch, 2)
				for j := range batches {
					batches[j] = c.MakeBatch(2*micro*tc.w, data.DefaultBatchConfig(m.Config.SeqLen))
				}
				_, err := e.TrainRound(batches)
				for attempt := 0; err != nil && attempt < 5; attempt++ {
					if _, rerr := e.RestoreCheckpoint(); rerr != nil {
						t.Fatalf("round %d: restore failed: %v (after %v)", round, rerr, err)
					}
					_, err = e.TrainRound(batches)
				}
				if err != nil {
					t.Fatalf("round %d never recovered: %v", round, err)
				}
			}
			for _, p := range m.Params() {
				if p.Value.HasNaN() {
					t.Fatalf("parameter %s not finite after the soak", p.Name)
				}
			}
		})
	}
}
