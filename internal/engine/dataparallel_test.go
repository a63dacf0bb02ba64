package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// requireGradsBitEqual asserts exact (bit-level) gradient equality — the
// guarantee of the fixed-order micro-batch collective, strictly stronger
// than the 1e-9 closeness the single-device comparisons use.
func requireGradsBitEqual(t *testing.T, params []*nn.Param, ref []*tensor.Matrix, context string) {
	t.Helper()
	for i, p := range params {
		if !p.Grad.Equal(ref[i]) {
			t.Fatalf("%s: gradient of %s not bit-identical (max diff %g)",
				context, p.Name, p.Grad.Sub(ref[i]).MaxAbs())
		}
	}
}

// The tentpole correctness property: a W = 2 data-parallel run over the
// same global batch produces gradients *bit-identical* to the W = 1 run —
// the reduction happens at micro-batch granularity in a fixed ascending
// order, so neither the replica sharding nor the schedule's backward order
// can perturb a single bit. Covers all three schedules for both model
// families.
func TestDataParallelBitIdentityBERT(t *testing.T) {
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()

	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		// W = 1 reference: 4 global micro-batches on one replica.
		e1, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		res1, err := e1.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s W=1: %v", method, err)
		}
		ref := cloneGrads(params)

		// W = 2: the same 4 global micro-batches, 2 per replica.
		e2, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if e2.Schedule().Devices != 4 {
			t.Fatalf("%s: W=2 schedule must span 4 devices, got %d", method, e2.Schedule().Devices)
		}
		nn.ZeroGrads(params)
		res2, err := e2.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s W=2: %v", method, err)
		}
		if res1.Loss.Total != res2.Loss.Total {
			t.Fatalf("%s: W=2 loss %.17g != W=1 loss %.17g", method, res2.Loss.Total, res1.Loss.Total)
		}
		requireGradsBitEqual(t, params, ref, method+" W=2 vs W=1")

		// The executed timeline shows the replica topology: sync-grad
		// collectives on every device, replicas on their own lanes.
		tl := e2.LastTimeline()
		if got := len(tl.EventsOfKind(pipeline.SyncGrad)); got != 4 {
			t.Fatalf("%s: executed W=2 timeline has %d sync-grad events, want 4", method, got)
		}
		var sawReplica1 bool
		for d := 0; d < tl.Devices; d++ {
			for _, ev := range tl.Events[d] {
				if ev.Op.Replica == 1 {
					sawReplica1 = true
				}
			}
		}
		if !sawReplica1 {
			t.Fatalf("%s: executed W=2 timeline records no replica-1 events", method)
		}
	}
}

func TestDataParallelBitIdentityGPT(t *testing.T) {
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

	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		e1, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		if _, err := e1.TrainStep(batch); err != nil {
			t.Fatalf("%s W=1: %v", method, err)
		}
		ref := cloneGrads(params)

		e2, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		if _, err := e2.TrainStep(batch); err != nil {
			t.Fatalf("%s W=2: %v", method, err)
		}
		requireGradsBitEqual(t, params, ref, "gpt "+method+" W=2 vs W=1")
	}
}

// The fixed reduction order is schedule-independent, so the bit-identity
// guarantee also upgrades the cross-schedule property: GPipe, 1F1B and
// Chimera now agree on every bit, not just to 1e-9.
func TestCrossScheduleBitIdentity(t *testing.T) {
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()

	var ref []*tensor.Matrix
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		if _, err := e.TrainStep(batch); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if ref == nil {
			ref = cloneGrads(params)
			continue
		}
		requireGradsBitEqual(t, params, ref, method+" vs gpipe")
	}
}

// Distributed K-FAC: with W = 2 and InversionParallel the curvature
// partials of both replicas fold into the shared per-stage factors in the
// same fixed order as W = 1, so preconditioned gradients stay
// bit-identical; the inversion units measurably shard across the replica
// group; and the SyncGrad/SyncCurvature collectives appear in the
// executed timeline.
func TestDataParallelKFACBitIdentityAndSharding(t *testing.T) {
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()
	opts := kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}

	e1, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.EnableKFAC(opts, 1); err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	if _, err := e1.TrainStep(batch); err != nil {
		t.Fatal(err)
	}
	ref := cloneGrads(params)

	e2, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2, InversionParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.EnableKFAC(opts, 1); err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	res, err := e2.TrainStep(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Refreshed {
		t.Fatal("first K-FAC step must refresh")
	}
	requireGradsBitEqual(t, params, ref, "kfac W=2 vs W=1")
	for s := 0; s < e2.Stages(); s++ {
		for _, ls := range e2.KFACStates(s).States() {
			if ls.CurvatureUpdates != 1 {
				t.Fatalf("stage %d layer %q: %d curvature updates, want 1 (fold-once across replicas)",
					s, ls.Layer.Name, ls.CurvatureUpdates)
			}
			if !ls.HasInverses() {
				t.Fatalf("stage %d layer %q: missing inverses", s, ls.Layer.Name)
			}
		}
	}

	// Collectives in the executed timeline.
	tl := e2.LastTimeline()
	if len(tl.EventsOfKind(pipeline.SyncGrad)) == 0 {
		t.Fatal("executed timeline missing sync-grad events")
	}
	if len(tl.EventsOfKind(pipeline.SyncCurvature)) == 0 {
		t.Fatal("executed timeline missing sync-curvature events")
	}

	// Inversion work shards across the replica group: for each stage,
	// both replica devices execute a strict subset of the factors.
	nFactors := 2 * len(e2.StageLayers(0))
	for s := 0; s < e2.Stages(); s++ {
		perDevice := map[int]int{}
		total := 0
		for d := 0; d < tl.Devices; d++ {
			for _, ev := range tl.Events[d] {
				if ev.Op.Kind == pipeline.Inversion && ev.Op.Stage == s {
					perDevice[d]++
					total++
				}
			}
		}
		if total != nFactors {
			t.Fatalf("stage %d executed %d inversion events, want %d (one per factor)", s, total, nFactors)
		}
		if len(perDevice) != 2 {
			t.Fatalf("stage %d inversions ran on %d devices, want the 2 replica devices", s, len(perDevice))
		}
		for d, cnt := range perDevice {
			if cnt == 0 || cnt == nFactors {
				t.Fatalf("stage %d device %d inverted %d/%d factors: work not sharded", s, d, cnt, nFactors)
			}
		}
	}
}

// The W = 2 data-parallel engine also trains: losses decrease over a short
// LAMB run (the replicated-parameter broadcast and the reduction compose
// with a real optimizer loop).
func TestDataParallelTrainingConverges(t *testing.T) {
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	opt := optim.NewLAMB(params, 0.01)
	var first, last float64
	const steps = 30
	for step := 0; step < steps; step++ {
		batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		nn.ZeroGrads(params)
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(5e-3)
		if step < 5 {
			first += res.Loss.Total / 5
		}
		if step >= steps-5 {
			last += res.Loss.Total / 5
		}
	}
	if last >= first-0.1 || math.IsNaN(last) {
		t.Fatalf("data-parallel training did not converge: %.3f -> %.3f", first, last)
	}
}

// Replicas must be validated, and the batch must cover the whole replica
// group.
func TestDataParallelValidation(t *testing.T) {
	m, c := newModelAndCorpus(t)
	if _, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, Replicas: -1}); err == nil {
		t.Fatal("negative Replicas must be rejected")
	}
	e, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Batch size 4 is divisible by MicroBatches but not by
	// Replicas*MicroBatches.
	batch := c.MakeBatch(6, data.DefaultBatchConfig(m.Config.SeqLen))
	if _, err := e.TrainStep(batch); err == nil {
		t.Fatal("batch not divisible by the replica group's micro-batches must be rejected")
	}
}

// The engine stays reusable after an aborted data-parallel step: the
// collective state is released and the next step reproduces the reference
// gradients (the W > 1 analogue of the error-path drain test).
func TestDataParallelErrorPathRollsBack(t *testing.T) {
	m, c := newModelAndCorpus(t)
	params := m.Params()
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))

	ref, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	if _, err := ref.TrainStep(batch); err != nil {
		t.Fatal(err)
	}
	refGrads := cloneGrads(params)

	e, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.Backward && op.Replica == 1 && op.MicroBatch == 1 {
			injected = true
			return fmt.Errorf("injected fault")
		}
		return nil
	}
	nn.ZeroGrads(params)
	if _, err := e.TrainStep(batch); err == nil {
		t.Fatal("expected injected fault to surface")
	}
	if !injected {
		t.Fatal("fault hook never fired")
	}
	e.failOp = nil
	nn.ZeroGrads(params)
	if _, err := e.TrainStep(batch); err != nil {
		t.Fatalf("engine unusable after aborted step: %v", err)
	}
	requireGradsBitEqual(t, params, refGrads, "post-failure data-parallel step")

	// A half-folded abort leaves nothing the next step reads: stage 1's
	// OptStep runs after its stage's fold, so failing there leaves another
	// batch's gradient in some accumulators and the garbage in the rest,
	// and the next step — with no ZeroGrads — still equals the reference,
	// because its fold overwrites every accumulator.
	fillGarbage(params)
	e.failOp = func(op *pipeline.Op) error {
		if op.Kind == pipeline.OptStep && op.Stage == 1 && op.Replica == 0 {
			return fmt.Errorf("late injected fault")
		}
		return nil
	}
	if _, err := e.TrainStep(c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))); err == nil {
		t.Fatal("expected late injected fault to surface")
	}
	e.failOp = nil
	if _, err := e.TrainStep(batch); err != nil {
		t.Fatalf("engine unusable after a half-folded abort: %v", err)
	}
	requireGradsBitEqual(t, params, refGrads, "step after a half-folded abort")
}

// gradsBitEqual reports whether every parameter's gradient equals ref bit
// for bit.
func gradsBitEqual(params []*nn.Param, ref []*tensor.Matrix) bool {
	for i, p := range params {
		if !p.Grad.Equal(ref[i]) {
			return false
		}
	}
	return true
}

// fillGarbage writes a non-zero pattern into every gradient accumulator —
// what a caller that never zeroes, or an aborted round, leaves there.
func fillGarbage(params []*nn.Param) {
	for i, p := range params {
		for k := range p.Grad.Data {
			p.Grad.Data[k] = 1e3 + float64(i) - 0.25*float64(k%7)
		}
	}
}

// A step's fold is the only writer of the primary's gradient accumulators:
// it overwrites them, so a step over accumulators full of garbage — no
// ZeroGrads before it — yields gradients bit-equal to a step over zeroed
// ones, in-process at W in {1, 2} and on a 2-rank ring.
func TestFoldOverwritesAccumulators(t *testing.T) {
	for _, method := range []string{"1f1b", "chimera"} {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/W%d", method, w), func(t *testing.T) {
				m, c := newModelAndCorpus(t)
				batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
				params := m.Params()
				e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 4 / w, Replicas: w})
				if err != nil {
					t.Fatal(err)
				}
				nn.ZeroGrads(params)
				if _, err := e.TrainStep(batch); err != nil {
					t.Fatal(err)
				}
				ref := cloneGrads(params)
				fillGarbage(params)
				if _, err := e.TrainStep(batch); err != nil {
					t.Fatal(err)
				}
				requireGradsBitEqual(t, params, ref, "step over garbage accumulators")
			})
		}
	}
	t.Run("ring/1f1b", func(t *testing.T) {
		out := runRingRanks(t, transport.DefaultChunkFloats, func(rank int, g transport.Group) rankResult {
			m, batch := newRankBERT(t, 8)
			e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 2, Transport: g})
			if err != nil {
				return rankResult{err: err}
			}
			params := m.Params()
			nn.ZeroGrads(params)
			if _, err := e.TrainStep(batch); err != nil {
				return rankResult{err: err}
			}
			ref := cloneGrads(params)
			fillGarbage(params)
			if _, err := e.TrainStep(batch); err != nil {
				return rankResult{err: err}
			}
			if !gradsBitEqual(params, ref) {
				return rankResult{err: fmt.Errorf("step over garbage accumulators differs from the zeroed step")}
			}
			return rankResult{}
		})
		for rank, r := range out {
			if r.err != nil {
				t.Fatalf("rank %d: %v", rank, r.err)
			}
		}
	})
}

// The steady-state all-reduce path allocates nothing: contributions and a
// factor's sum cycle through the tensor workspace pool, and the fixed-order
// fold works in place. One reduction each of a stage's gradient set (a
// weight and its bias) and of a layer's two factor sums, in one batch, with
// every contribution held as on a rank that does not start the chain.
func TestReduceGradsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop items, so the pooled path allocates")
	}
	params := []*nn.Param{
		{Name: "w", Value: tensor.Zeros(8, 8), Grad: tensor.Zeros(8, 8)},
		{Name: "b", Value: tensor.Zeros(1, 8), Grad: tensor.Zeros(1, 8)},
	}
	const micros = 4
	// The retained reductions mirror what the executor builds once per
	// schedule and generation pool: the loopback fold must stay zero-alloc
	// with them.
	group := transport.Loopback{}
	var grads runningSum
	grads.init(micros, []transport.Reduction{{Name: "g/0/0"}, {Name: "g/0/1"}},
		[]*tensor.Matrix{params[0].Grad.Clone(), params[1].Grad.Clone()}, nil)
	pool := newKFACGenPool(1, micros, 1, 1, nil)
	var epoch int64
	round := func() {
		epoch++
		for m := 0; m < micros; m++ {
			for k, p := range params {
				copy(grads.take(m, k, p.Grad.Rows, p.Grad.Cols).Data, p.Value.Data)
			}
			grads.arrive(epoch, m, false)
			for f := range pool.sums[0] {
				pool.sums[0][f].take(m, 0, 8, 8).Zero()
				pool.sums[0][f].arrive(pool.epoch, m, false)
			}
		}
		if _, err := reduce(group, epoch, grads.ops, &grads); err != nil {
			t.Fatal(err)
		}
		if _, err := reduce(group, pool.epoch, pool.ops[0][:2], &pool.sums[0][0], &pool.sums[0][1]); err != nil {
			t.Fatal(err)
		}
		pool.reset()
	}
	// Warm the pool.
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs > 0 {
		t.Fatalf("steady-state all-reduce path allocates %.1f times per run, want 0", allocs)
	}
}
