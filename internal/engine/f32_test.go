package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Float32 compute mode through the full PipeFisher loop: the packed matmul
// kernels narrow their panels and the K-FAC statistics snapshots narrow at
// capture, but the training trajectory must stay close to float64 — the
// factors, inverses, gradients and optimizer state all remain float64, so
// only the per-matmul rounding differs.
func TestFloat32ModeKFACCloseToFloat64(t *testing.T) {
	for _, model := range []string{"bert", "gpt"} {
		t.Run(model, func(t *testing.T) {
			run := func(f32 bool) ([]float64, bool) {
				tensor.SetF32(f32)
				defer tensor.SetF32(false)
				mc := refModels[model]
				m, err := mc.make(2)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.95, UsePiDamping: true}, 2); err != nil {
					t.Fatal(err)
				}
				params := m.Params()
				opt := optim.NewLAMB(params, 0.01)
				var losses []float64
				refreshed := false
				for _, batch := range mc.batches(t, 6, 8) {
					nn.ZeroGrads(params)
					res, err := e.TrainStep(batch)
					if err != nil {
						t.Fatal(err)
					}
					opt.Step(3e-3)
					losses = append(losses, res.Loss.Total)
					refreshed = refreshed || res.Refreshed
				}
				return losses, refreshed
			}
			wide, wideRefreshed := run(false)
			narrow, narrowRefreshed := run(true)
			if !wideRefreshed || !narrowRefreshed {
				t.Fatalf("K-FAC refresh did not fire (f64=%v f32=%v)", wideRefreshed, narrowRefreshed)
			}
			for i := range wide {
				tol := 5e-2 * math.Max(1, math.Abs(wide[i]))
				if math.Abs(wide[i]-narrow[i]) > tol {
					t.Fatalf("step %d: float32-mode loss %.6f drifted from float64 loss %.6f (tol %.2g)",
						i, narrow[i], wide[i], tol)
				}
			}
			// The modes must actually differ: bit-identical trajectories would
			// mean the narrow path silently never engaged.
			if slices.Equal(wide, narrow) {
				t.Fatal("float32-mode losses bit-identical to float64 — narrowing never engaged")
			}
		})
	}
}

// In float32 mode every gradient must still be bit-identical across worker
// counts: the packed driver splits panels on a shape-only grid and each
// output element keeps its fixed ascending-k reduction, narrow or wide.
func TestFloat32ModeWorkerCountBitIdentity(t *testing.T) {
	tensor.SetF32(true)
	defer tensor.SetF32(false)
	defer tensor.SetParallelism(0)
	defer tensor.SetOpParallelism(0)
	grads := func(workers int) ([]*tensor.Matrix, float64) {
		tensor.SetParallelism(workers)
		m, c := newModelAndCorpus(t)
		e, err := NewWithConfig(m, Config{Method: "1f1b", Stages: 2, MicroBatches: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.95, UsePiDamping: true}, 2); err != nil {
			t.Fatal(err)
		}
		params := m.Params()
		nn.ZeroGrads(params)
		batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		res, err := e.TrainStep(batch)
		if err != nil {
			t.Fatal(err)
		}
		return cloneGrads(params), res.Loss.Total
	}
	serialGrads, serialLoss := grads(1)
	parGrads, parLoss := grads(4)
	if serialLoss != parLoss {
		t.Fatalf("float32-mode loss differs across worker counts: %v vs %v", serialLoss, parLoss)
	}
	for i := range serialGrads {
		if !serialGrads[i].Equal(parGrads[i]) {
			t.Fatalf("float32-mode gradient %d not bit-identical across worker counts", i)
		}
	}
}
