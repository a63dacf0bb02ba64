package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/bert"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// tensorFMAWide is tensor's resolved tile width for the fma kernel
// variant: true = 512-bit tiles. It is unexported there on purpose — no
// API names a width — so this test, the one reader outside the package,
// reaches it by linkname.
//
//go:linkname tensorFMAWide repro/internal/tensor.fmaWide
var tensorFMAWide atomic.Bool

// The 256-bit and the 512-bit tiles of the fma variant are one function
// (tensor.TestFMAWidthIdentity, product by product). This is the same
// claim at the level a training run sees it: losses, every parameter
// gradient, every K-FAC factor and cached inverse and the weights after
// real rounds are bit-equal between the widths — through attention's
// d_k = 8 windows (narrower than a 512-bit panel, so they keep the 256-bit
// tile while the d = 32 products beside them widen), the fused gradient
// accumulation, the lower-only Gram factors and the blocked inverse's
// triangular products on views.
func TestFMAWidthEngineIdentity(t *testing.T) {
	if tensor.ActiveKernel() != tensor.KernelFMA || !tensorFMAWide.Load() {
		t.Skip("fma width: avx512 absent")
	}
	defer tensorFMAWide.Store(true)
	type result struct {
		names  []string // what each recorded matrix is
		mats   []*tensor.Matrix
		losses []float64
		model  *bert.Model
	}
	run := func(t *testing.T, wide bool, cfg Config, rounds int) result {
		tensorFMAWide.Store(wide)
		m, err := bert.New(bert.TinyConfig(), 123)
		if err != nil {
			t.Fatal(err)
		}
		r := result{model: m}
		record := func(name string, mat *tensor.Matrix) {
			r.names, r.mats = append(r.names, name), append(r.mats, mat.Clone())
		}
		k := max(cfg.RefreshSteps, 1)
		e := newSwapEngine(t, m, cfg, k)
		opt := optim.NewLAMB(m.Params(), 0.01)
		e.SetOptimizer(func(step int) error {
			for _, p := range m.Params() {
				record(fmt.Sprintf("step %d, gradient of %s", step, p.Name), p.Grad)
			}
			opt.Step(5e-3)
			return nil
		})
		batches := bertBatches(t, rounds*k, 8)
		for i := 0; i < rounds; i++ {
			res, err := e.TrainRound(batches[i*k : (i+1)*k])
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range res {
				r.losses = append(r.losses, sr.Loss.Total)
			}
			for s := 0; s < e.Stages(); s++ {
				for _, ls := range e.KFACStates(s).States() {
					// An overlapped round may carry a layer's inversion into
					// the next one: record what exists, require all at the end.
					if i == rounds-1 && !ls.HasInverses() {
						t.Fatalf("layer %s has no inverses after %d rounds", ls.Layer.Name, rounds)
					}
					for _, f := range []struct {
						name string
						mat  *tensor.Matrix
					}{{"A", ls.A}, {"B", ls.B}, {"AInv", ls.AInv}, {"BInv", ls.BInv}} {
						if f.mat != nil {
							record(fmt.Sprintf("round %d, %s %s", i, ls.Layer.Name, f.name), f.mat)
						}
					}
				}
			}
		}
		return r
	}
	for _, c := range []struct {
		cfg    Config
		rounds int
	}{
		{Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 1}, 3},
		{Config{Method: "chimera", Stages: 2, MicroBatches: 4, RefreshSteps: 2, OverlapRounds: true}, 2},
	} {
		t.Run(fmt.Sprintf("%s/K%d", c.cfg.Method, c.cfg.RefreshSteps), func(t *testing.T) {
			narrow, wide := run(t, false, c.cfg, c.rounds), run(t, true, c.cfg, c.rounds)
			for i, l := range narrow.losses {
				if math.Float64bits(l) != math.Float64bits(wide.losses[i]) {
					t.Fatalf("step %d: loss %.17g at 256-bit tiles, %.17g at 512-bit tiles", i, l, wide.losses[i])
				}
			}
			if len(narrow.mats) != len(wide.mats) || len(narrow.mats) == 0 {
				t.Fatalf("recorded %d matrices at 256 bits, %d at 512", len(narrow.mats), len(wide.mats))
			}
			for i, mat := range narrow.mats {
				if !mat.Equal(wide.mats[i]) {
					t.Fatalf("%s: 512-bit tiles differ from 256-bit tiles (max %g)", narrow.names[i], mat.Sub(wide.mats[i]).MaxAbs())
				}
			}
			requireParamsBitEqual(t, wide.model.Params(), narrow.model.Params(), "512-bit vs 256-bit tiles")
		})
	}
	if !t.Failed() {
		t.Log("fma width: avx512 tested")
	}
}
