package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The ownership contract (engine.go, "Module sets and ownership"): every
// module set's stage has one device, every module set runs over one copy
// of the weights per process, and nothing locks a stage. These tests fail
// if a per-stage serialisation comes back, if a schedule ever splits a
// module set's stage across devices, or if the weight alias breaks.

// rendezvousModel parks the first EmbedForward of the run until a second
// one has been entered — from any copy of the model.
type rendezvousModel struct {
	pipemodel.Model
	rv *rendezvous
}

type rendezvous struct {
	entered  atomic.Int32
	second   chan struct{}
	timedOut atomic.Bool
}

func (m *rendezvousModel) EmbedForward(mb *data.Batch) *tensor.Matrix {
	switch m.rv.entered.Add(1) {
	case 1:
		select {
		case <-m.rv.second:
		case <-time.After(5 * time.Second):
			m.rv.timedOut.Store(true)
		}
	case 2:
		close(m.rv.second)
	}
	return m.Model.EmbedForward(mb)
}

func (m *rendezvousModel) Replicate() (pipemodel.Model, error) {
	c, err := m.Model.Replicate()
	if err != nil {
		return nil, err
	}
	return &rendezvousModel{Model: c, rv: m.rv}, nil
}

// Chimera at D = 2: device 0's first op is the down pipeline's stage-0
// forward, device 1's the up pipeline's. The first of the two to reach its
// embedding waits, inside the op, for the other to reach its own. Under any
// lock around a pipeline stage the second can never get there.
func TestChimeraDirectionsRunConcurrently(t *testing.T) {
	m, c := newModelAndCorpus(t)
	rv := &rendezvous{second: make(chan struct{})}
	e, err := NewWithConfig(&rendezvousModel{Model: m, rv: rv}, Config{Method: "chimera", Stages: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainStep(c.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))); err != nil {
		t.Fatal(err)
	}
	if rv.timedOut.Load() {
		t.Fatal("the down pipeline's stage-0 forward waited 5 s inside the op and the up pipeline's never started: the two directions are serialised")
	}
	if n := rv.entered.Load(); n < 2 {
		t.Fatalf("only %d embedding forwards ran", n)
	}
}

// Every schedule the engine can be asked to run gives each stage of each
// module set — (replica, pipeline, stage) — exactly one device, Chimera's
// up pipeline included; and Chimera really does put the two directions of
// a replica's stage on two devices, which is what the second module set is
// for.
func TestScheduleOwnershipGenerated(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, d := range []int{2, 4, 8} {
			cfg := bert.TinyConfig()
			cfg.Blocks = d
			for _, n := range []int{2, 4} {
				for _, w := range []int{1, 2} {
					for _, withKFAC := range []bool{false, true} {
						for _, k := range []int{1, 4} {
							name := fmt.Sprintf("%s/D%d/N%d/W%d/kfac=%v/K%d", method, d, n, w, withKFAC, k)
							m, err := bert.New(cfg, 1)
							if err != nil {
								t.Fatal(err)
							}
							e, err := NewWithConfig(m, Config{
								Method: method, Stages: d, MicroBatches: n, Replicas: w,
								RefreshSteps: k, OverlapRounds: withKFAC && k > 1,
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							requireAlias(t, e, name+" after NewWithConfig")
							if withKFAC {
								if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9}, k); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
							}
							wantSets := w
							if method == "chimera" {
								wantSets = 2 * w
							}
							if len(e.sets) != wantSets {
								t.Fatalf("%s: %d module sets, want %d", name, len(e.sets), wantSets)
							}
							owner := map[[3]int]int{}
							for _, op := range e.Schedule().Ops {
								if op.Kind != pipeline.Forward && op.Kind != pipeline.Backward {
									continue
								}
								if i := e.setIndex(op); i < 0 || i >= len(e.sets) {
									t.Fatalf("%s: op %s maps to module set %d of %d", name, op.Label(), i, len(e.sets))
								}
								key := [3]int{op.Replica, op.Pipeline, op.Stage}
								if dev, ok := owner[key]; ok && dev != op.Device {
									t.Fatalf("%s: (replica %d, pipeline %d, stage %d) runs on devices %d and %d",
										name, op.Replica, op.Pipeline, op.Stage, dev, op.Device)
								}
								owner[key] = op.Device
							}
							if len(owner) != wantSets*d {
								t.Fatalf("%s: %d (replica, pipeline, stage) triples carry work, want %d", name, len(owner), wantSets*d)
							}
							if method == "chimera" {
								for r := 0; r < w; r++ {
									for s := 0; s < d; s++ {
										if owner[[3]int{r, 0, s}] == owner[[3]int{r, 1, s}] {
											t.Fatalf("%s: both directions of replica %d stage %d sit on device %d", name, r, s, owner[[3]int{r, 0, s}])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// aliasError checks the storage half of the contract — one parameter copy
// per process: the engine holds the module sets its method runs, and every
// set but the primary computes with the primary's parameter storage, not a
// copy, and holds no gradient storage between rounds.
func aliasError(e *Engine) error {
	if want := e.cfg.Replicas * pipeline.Pipelines(e.cfg.Method); len(e.sets) < want {
		return fmt.Errorf("%d module sets, want %d", len(e.sets), want)
	}
	prim := e.sets[0].params
	for i, set := range e.sets[1:] {
		for k, p := range set.params {
			q := prim[k]
			if len(p.Value.Data) != len(q.Value.Data) || len(q.Value.Data) == 0 || &p.Value.Data[0] != &q.Value.Data[0] {
				return fmt.Errorf("module set %d %s holds its own copy of the weights", i+1, p.Name)
			}
			if p.Grad.Data != nil {
				return fmt.Errorf("module set %d %s holds %d gradient elements between rounds", i+1, p.Name, len(p.Grad.Data))
			}
		}
	}
	return nil
}

func requireAlias(t *testing.T, e *Engine, context string) {
	t.Helper()
	if err := aliasError(e); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

// Chimera over two module sets computes exactly what GPipe computes over
// one: losses and parameters after three K-FAC-preconditioned LAMB steps
// are bit-identical for BERT and GPT, W in {1, 2, 4}, with and without
// inversion sharding — and every secondary set still aliases the primary's
// weights afterwards.
func TestChimeraIdentityMatrix(t *testing.T) {
	type modelCase struct {
		name    string
		make    func() (pipemodel.Model, error)
		batches func(t *testing.T, n, size int) []*data.Batch
	}
	cases := []modelCase{
		{"bert", func() (pipemodel.Model, error) { return bert.New(bert.TinyConfig(), 123) }, bertBatches},
		{"gpt", func() (pipemodel.Model, error) { return gpt.New(gpt.TinyConfig(), 99) }, gptBatches},
	}
	train := func(t *testing.T, m pipemodel.Model, batches []*data.Batch, cfg Config) (*Engine, []float64) {
		e := newKFACEngine(t, m, cfg, 1)
		var losses []float64
		for _, b := range batches {
			res, err := e.TrainRound([]*data.Batch{b})
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, res[0].Loss.Total)
		}
		return e, losses
	}
	for _, mc := range cases {
		for _, w := range []int{1, 2, 4} {
			// Two sequences per micro-batch, at least two micro-batches per
			// replica (Chimera's pair), against GPipe on the same batches.
			size := 4 * max(w, 2)
			batches := mc.batches(t, 3, size)
			mRef, err := mc.make()
			if err != nil {
				t.Fatal(err)
			}
			_, refLosses := train(t, mRef, batches, Config{Method: "gpipe", Stages: 2, MicroBatches: size / 2})
			for _, invPar := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/W%d/invpar=%v", mc.name, w, invPar), func(t *testing.T) {
					m, err := mc.make()
					if err != nil {
						t.Fatal(err)
					}
					e, losses := train(t, m, batches, Config{
						Method: "chimera", Stages: 2, MicroBatches: size / (2 * w), Replicas: w,
						InversionParallel: invPar,
					})
					for i := range losses {
						if losses[i] != refLosses[i] {
							t.Fatalf("step %d: chimera loss %.17g != gpipe %.17g", i, losses[i], refLosses[i])
						}
					}
					requireParamsBitEqual(t, m.Params(), mRef.Params(), "chimera vs gpipe")
					requireAlias(t, e, "after training")
				})
			}
		}
	}
}

// A checkpoint restore writes the saved weights into the primary's storage
// in place, so every module set sees them: the alias holds after
// RestoreCheckpoint and after RegroupRestore — on a loopback group, on a
// ring whose ranks agree, and through the resync a rejoin's
// Reconnect(g, true) runs — and the replayed round is bit-identical.
func TestChimeraAliasSurvivesRestore(t *testing.T) {
	cfg := Config{Method: "chimera", Stages: 2, MicroBatches: 2, Replicas: 2, RefreshSteps: 2, Checkpoint: true}
	batches := bertBatches(t, 4, 8)

	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	e := newKFACEngine(t, m, cfg, 2)
	if _, err := e.TrainRound(batches[:2]); err != nil {
		t.Fatal(err)
	}
	res, err := e.TrainRound(batches[2:])
	if err != nil {
		t.Fatal(err)
	}
	want := cloneParams(m.Params())
	for _, restore := range []func() (int, error){e.RestoreCheckpoint, e.RegroupRestore} {
		if step, err := restore(); err != nil || step != 2 {
			t.Fatalf("restore: step %d, err %v", step, err)
		}
		requireAlias(t, e, "after restore")
		again, err := e.TrainRound(batches[2:])
		if err != nil {
			t.Fatal(err)
		}
		for j := range again {
			if again[j].Loss.Total != res[j].Loss.Total {
				t.Fatalf("replayed step %d: loss %.17g != %.17g", j, again[j].Loss.Total, res[j].Loss.Total)
			}
		}
		for i, p := range m.Params() {
			if !p.Value.Equal(want[i]) {
				t.Fatalf("replayed round: parameter %s differs", p.Name)
			}
		}
	}

	// Two ring ranks, one Chimera replica pair each: the same global width.
	// A resync rebuilds the K-FAC state, so what must equal the loopback
	// replay is the first replayed step's loss — a function of the restored
	// weights alone — and the ranks must agree on every parameter.
	out := runRingRanks(t, transport.DefaultChunkFloats, func(rank int, g transport.Group) rankResult {
		fail := func(err error) rankResult { return rankResult{err: err} }
		rm, err := bert.New(bert.TinyConfig(), 123)
		if err != nil {
			return fail(err)
		}
		c := cfg
		c.Replicas, c.Transport = 1, g
		re, err := NewWithConfig(rm, c)
		if err != nil {
			return fail(err)
		}
		if err := re.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, 2); err != nil {
			return fail(err)
		}
		opt := optim.NewLAMB(rm.Params(), 0.01)
		re.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
		re.AttachOptimizerState(opt)
		for i := 0; i < 4; i += 2 {
			if _, err := re.TrainRound(batches[i : i+2]); err != nil {
				return fail(err)
			}
		}
		if _, err := re.RegroupRestore(); err != nil {
			return fail(err)
		}
		if err := aliasError(re); err != nil {
			return fail(fmt.Errorf("after RegroupRestore: %w", err))
		}
		if err := re.Reconnect(g, true); err != nil {
			return fail(err)
		}
		if err := aliasError(re); err != nil {
			return fail(fmt.Errorf("after Reconnect with resync: %w", err))
		}
		res, err := re.TrainRound(batches[2:])
		if err != nil {
			return fail(err)
		}
		return rankResult{loss: res[0].Loss.Total, grads: cloneParams(rm.Params())}
	})
	for rank, r := range out {
		if r.err != nil {
			t.Fatalf("rank %d: %v", rank, r.err)
		}
		requireRankGradsBitEqual(t, r.grads, out[0].grads, fmt.Sprintf("rank %d vs rank 0 parameters", rank))
	}
	if out[0].loss != res[0].Loss.Total {
		t.Fatalf("ring replay loss %.17g != loopback %.17g", out[0].loss, res[0].Loss.Total)
	}
}
