package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bert"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// TestPlainRoundsMatchFullList: at refreshEvery > K with nothing carried,
// three rounds in four neither collect nor carry a generation, and they
// skip their refresh ops instead of running them (Engine.plainRound). Their
// losses, every gradient the optimizer is handed, the K-FAC state and the
// weights must equal those of an engine that walks the full op list every
// round — a failOp hook that fails nothing keeps an engine running every op
// — bit for bit.
func TestPlainRoundsMatchFullList(t *testing.T) {
	type result struct {
		losses []float64
		grads  []*tensor.Matrix
		model  *bert.Model
		plain  int // rounds that skipped their refresh ops
		carry  int // rounds that carried a generation
	}
	run := func(t *testing.T, cfg Config, full bool) result {
		m, err := bert.New(bert.TinyConfig(), 7)
		if err != nil {
			t.Fatal(err)
		}
		r := result{model: m}
		e := newKFACEngine(t, m, cfg, 4*max(cfg.RefreshSteps, 1))
		if full {
			e.failOp = func(*pipeline.Op) error { return nil }
		}
		opt := optim.NewLAMB(m.Params(), 0.01)
		e.SetOptimizer(func(int) error {
			for _, p := range m.Params() {
				r.grads = append(r.grads, p.Grad.Clone())
			}
			opt.Step(5e-3)
			return nil
		})
		k := max(cfg.RefreshSteps, 1)
		batches := bertBatches(t, 8*k, 8)
		for i := 0; i < 8; i++ {
			refresh := e.roundIndex%(e.refreshEvery/k) == 0 || e.refreshPending
			if e.plainRound(refresh, e.carried) {
				r.plain++
			}
			if e.carried != nil {
				r.carry++
			}
			res, err := e.TrainRound(batches[i*k : (i+1)*k])
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range res {
				r.losses = append(r.losses, sr.Loss.Total)
			}
		}
		for s := 0; s < e.Stages(); s++ {
			for _, ls := range e.KFACStates(s).States() {
				r.grads = append(r.grads, ls.A.Clone(), ls.B.Clone(), ls.Inverse(false, nil), ls.Inverse(true, nil))
			}
		}
		return r
	}
	for _, cfg := range []Config{
		{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1},
		{Method: "chimera", Stages: 2, MicroBatches: 4, RefreshSteps: 1},
		{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, OverlapRounds: true},
	} {
		t.Run(fmt.Sprintf("%s/K%d/overlap=%v", cfg.Method, cfg.RefreshSteps, cfg.OverlapRounds), func(t *testing.T) {
			plain, full := run(t, cfg, false), run(t, cfg, true)
			if plain.plain == 0 || full.plain != 0 {
				t.Fatalf("%d plain rounds on the default engine, %d on the full-list one: want > 0 and 0", plain.plain, full.plain)
			}
			if cfg.OverlapRounds && plain.carry == 0 {
				t.Fatal("no round carried a generation: the overlapped case tests nothing a carry could break")
			}
			for i, l := range plain.losses {
				if math.Float64bits(l) != math.Float64bits(full.losses[i]) {
					t.Fatalf("step %d: loss %.17g on plain rounds, %.17g on the full list", i, l, full.losses[i])
				}
			}
			if len(plain.grads) != len(full.grads) {
				t.Fatalf("recorded %d matrices on plain rounds, %d on the full list", len(plain.grads), len(full.grads))
			}
			for i, g := range plain.grads {
				if !g.Equal(full.grads[i]) {
					t.Fatalf("matrix %d differs between plain rounds and the full list (max %g)", i, g.Sub(full.grads[i]).MaxAbs())
				}
			}
			requireParamsBitEqual(t, plain.model.Params(), full.model.Params(), "plain rounds vs the full list")
		})
	}
}
