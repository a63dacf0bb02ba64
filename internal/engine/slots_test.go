package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashMatrix(h hash.Hash, m *tensor.Matrix) {
	hashFloats(h, float64(m.Rows), float64(m.Cols))
	hashFloats(h, m.Data...)
}

// TestSlotsBitIdenticalToRecompute pins the executor's numbers against the
// executor that re-ran every forward before its backward: one SHA-256 per
// (model, schedule, W) over every step's loss, every parameter gradient the
// optimizer sees, and every K-FAC factor and cached inverse after every
// round — serialized K = 1 rounds, overlapped K = 2 rounds, and both again
// under ShardParams where W = 2 — under the portable tiled kernel. The
// digests were recorded by running this test body at the commit before the
// activation slots (0666974, backward = recompute + backward), so a green
// run proves that stashing changed which buffer holds an activation and
// nothing else. (GPipe and 1F1B share a digest: same packing cost shape,
// schedule-independent numbers.)
func TestSlotsBitIdenticalToRecompute(t *testing.T) {
	want := map[string]string{
		"bert/gpipe/W1":   "bf7815ebcd89602fb6791669a01933027d567b3d0389d150e6953c34b9cfdab8",
		"bert/gpipe/W2":   "eaa14ddaf5a8937ede74a75757caa2ba7dabce2304070012b7678273935b9ba8",
		"bert/1f1b/W1":    "bf7815ebcd89602fb6791669a01933027d567b3d0389d150e6953c34b9cfdab8",
		"bert/1f1b/W2":    "eaa14ddaf5a8937ede74a75757caa2ba7dabce2304070012b7678273935b9ba8",
		"bert/chimera/W1": "2326df392ed6ce67949fcda90f559bc5675648db5a400c06456fcc695a015b36",
		"bert/chimera/W2": "c0c28d335d5b8c3a778fc109023c59bfa8ea32d9f309a0abc5b101116f098514",
		"gpt/gpipe/W1":    "b5955e3cf895a9a54e606f63e04d5397b377eedb0069de5afa59d752789af680",
		"gpt/gpipe/W2":    "44ffe155e74b6c26d2f288437e0143a5301382971cb4d9d157b86e2e183cf0ee",
		"gpt/1f1b/W1":     "b5955e3cf895a9a54e606f63e04d5397b377eedb0069de5afa59d752789af680",
		"gpt/1f1b/W2":     "44ffe155e74b6c26d2f288437e0143a5301382971cb4d9d157b86e2e183cf0ee",
		"gpt/chimera/W1":  "d1d4b756b5b615a9c7a1c9298b917288beec962fd7d49eb8497eaa4dd69556af",
		"gpt/chimera/W2":  "65f3be4cc38ac74edd719a05ca268f0366daa90d28d1465622fdf30b5b6828bd",
	}
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	if err := tensor.SetKernel(tensor.KernelTiled); err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name    string
		make    func() (pipemodel.Model, error)
		batches func(t *testing.T, n, size int) []*data.Batch
	}{
		{"bert", func() (pipemodel.Model, error) { return bert.New(bert.TinyConfig(), 123) }, bertBatches},
		{"gpt", func() (pipemodel.Model, error) { return gpt.New(gpt.TinyConfig(), 99) }, gptBatches},
	}
	for _, mc := range models {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2} {
				key := fmt.Sprintf("%s/%s/W%d", mc.name, method, w)
				h := sha256.New()
				for _, shard := range []bool{false, true}[:w] { // ShardParams needs W = 2
					for _, k := range []int{1, 2} {
						m, err := mc.make()
						if err != nil {
							t.Fatal(err)
						}
						e, err := NewWithConfig(m, Config{
							Method: method, Stages: 2, MicroBatches: 4, Replicas: w,
							RefreshSteps: k, OverlapRounds: k > 1, ShardParams: shard,
						})
						if err != nil {
							t.Fatalf("%s shard=%v K%d: %v", key, shard, k, err)
						}
						if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, k); err != nil {
							t.Fatal(err)
						}
						opt := optim.NewLAMB(m.Params(), 0.01)
						e.SetOptimizer(func(step int) error {
							for _, p := range m.Params() {
								hashMatrix(h, p.Grad)
							}
							opt.Step(5e-3)
							return nil
						})
						const rounds = 3
						batches := mc.batches(t, rounds*k, 16)
						for i := 0; i < rounds; i++ {
							res, err := e.TrainRound(batches[i*k : (i+1)*k])
							if err != nil {
								t.Fatalf("%s shard=%v K%d round %d: %v", key, shard, k, i, err)
							}
							for _, sr := range res {
								hashFloats(h, sr.Loss.Total)
							}
							for s := 0; s < e.Stages(); s++ {
								for _, ls := range e.KFACStates(s).States() {
									for _, f := range []*tensor.Matrix{ls.A, ls.B, ls.AInv, ls.BInv} {
										if f != nil {
											hashMatrix(h, f)
										}
									}
								}
							}
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
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
		e := newSwapEngine(t, m, cfg, 1)
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
// set, stage) is exactly the schedule's in-flight depth — the first executed
// counterpart of perfmodel.MemoryModel's Act = N·Mact, and of "1F1B holds
// fewer activations than GPipe" — and every slot is free when the round
// ends.
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
