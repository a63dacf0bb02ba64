package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bert"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// parentCosts is the packing cost shape the engine used before it priced
// ops from the model's shapes: forward 100, backward 200, precondition 25,
// opt-step 10, every curvature unit 6 and inversion unit 10, sync-grad 60
// across replicas, sync-curvature 20 across replicas or inversion shards.
// Tests whose configurations were chosen against these proportions — or
// whose digests were recorded under them — install them through
// Reconfigure, which is how the auto-tuner installs fitted costs too.
func parentCosts(e *Engine) pipeline.StageCosts {
	c := pipeline.StageCosts{Forward: 100, Backward: 200, Precondition: 25, OptStep: 10}
	if e.Replicas() > 1 {
		c.SyncGrad = 60
	}
	if e.Replicas() > 1 || e.Shape().InversionParallel {
		c.SyncCurvature = 20
	}
	for i := 0; i < 2*len(e.StageLayers(0)); i++ {
		c.CurvatureUnits = append(c.CurvatureUnits, 6)
		c.CurvaturePerMicroBatch += 6
		c.InversionUnits = append(c.InversionUnits, 10)
	}
	return c
}

// pinParentCosts makes e pack with parentCosts from now on, its schedule
// shape otherwise unchanged.
func pinParentCosts(t *testing.T, e *Engine) {
	t.Helper()
	c := parentCosts(e)
	if err := e.Reconfigure(e.Shape(), &c); err != nil {
		t.Fatal(err)
	}
}

// commitOverlap returns the refresh time (µs) an executed round ran while a
// step's commit was pending: refresh events of step j+1 that started before
// step j's commit — its longest OptStep event — ended, counted up to that
// end.
func commitOverlap(tl *pipeline.Timeline) hardware.Microseconds {
	commitEnd := make([]hardware.Microseconds, tl.Steps)
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if j := ev.Op.Step; ev.Op.Kind == pipeline.OptStep && j >= 0 && j < tl.Steps {
				commitEnd[j] = max(commitEnd[j], ev.End)
			}
		}
	}
	var sum hardware.Microseconds
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if j := ev.Op.Step - 1; ev.Op.Kind.IsRefresh() && j >= 0 && j < tl.Steps && ev.Start < commitEnd[j] {
				sum += min(ev.End, commitEnd[j]) - ev.Start
			}
		}
	}
	return sum
}

// TestCommitPendingIdentity: a device that arrived at a step's commit runs
// the refresh ops next in its order while the commit is pending, instead of
// parking. For a fixed op list that changes when work runs, never what it
// computes. The parent's packing cost shape pins the op lists; over gpipe,
// 1f1b and chimera x W {1, 2} x K {1, 4} x overlap x inversion sharding,
// one SHA-256 per configuration over every loss, every gradient the
// optimizer sees and every K-FAC factor and inverse after every round must
// equal the digest recorded by running this test at the commit before
// (53ec9b0, every device parked at the barrier). Under the tiled kernel,
// like TestSlotsBitIdenticalToRecompute, so the digests do not depend on
// the host's vector width.
func TestCommitPendingIdentity(t *testing.T) {
	want := map[string]string{
		"gpipe/W1/K1/overlap=false/invpar=false":   "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"gpipe/W1/K1/overlap=false/invpar=true":    "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"gpipe/W1/K1/overlap=true/invpar=false":    "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"gpipe/W1/K1/overlap=true/invpar=true":     "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"gpipe/W1/K4/overlap=false/invpar=false":   "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"gpipe/W1/K4/overlap=false/invpar=true":    "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"gpipe/W1/K4/overlap=true/invpar=false":    "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"gpipe/W1/K4/overlap=true/invpar=true":     "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"gpipe/W2/K1/overlap=false/invpar=false":   "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"gpipe/W2/K1/overlap=false/invpar=true":    "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"gpipe/W2/K1/overlap=true/invpar=false":    "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"gpipe/W2/K1/overlap=true/invpar=true":     "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"gpipe/W2/K4/overlap=false/invpar=false":   "0e414ed9172b159ef89811925f430d22d530649d96985aa5307e5d66e0a2307d",
		"gpipe/W2/K4/overlap=false/invpar=true":    "0c75a8e35f57c2b005d702fd19ebb0d796efa509c3fe5c256175bd8542938505",
		"gpipe/W2/K4/overlap=true/invpar=false":    "0e414ed9172b159ef89811925f430d22d530649d96985aa5307e5d66e0a2307d",
		"gpipe/W2/K4/overlap=true/invpar=true":     "0c75a8e35f57c2b005d702fd19ebb0d796efa509c3fe5c256175bd8542938505",
		"1f1b/W1/K1/overlap=false/invpar=false":    "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"1f1b/W1/K1/overlap=false/invpar=true":     "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"1f1b/W1/K1/overlap=true/invpar=false":     "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"1f1b/W1/K1/overlap=true/invpar=true":      "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"1f1b/W1/K4/overlap=false/invpar=false":    "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"1f1b/W1/K4/overlap=false/invpar=true":     "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"1f1b/W1/K4/overlap=true/invpar=false":     "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"1f1b/W1/K4/overlap=true/invpar=true":      "9f4094c002763aa2367058fbd01638dd10e6653851881f707c1a751a2bd7686a",
		"1f1b/W2/K1/overlap=false/invpar=false":    "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"1f1b/W2/K1/overlap=false/invpar=true":     "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"1f1b/W2/K1/overlap=true/invpar=false":     "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"1f1b/W2/K1/overlap=true/invpar=true":      "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"1f1b/W2/K4/overlap=false/invpar=false":    "0e414ed9172b159ef89811925f430d22d530649d96985aa5307e5d66e0a2307d",
		"1f1b/W2/K4/overlap=false/invpar=true":     "0c75a8e35f57c2b005d702fd19ebb0d796efa509c3fe5c256175bd8542938505",
		"1f1b/W2/K4/overlap=true/invpar=false":     "0e414ed9172b159ef89811925f430d22d530649d96985aa5307e5d66e0a2307d",
		"1f1b/W2/K4/overlap=true/invpar=true":      "0c75a8e35f57c2b005d702fd19ebb0d796efa509c3fe5c256175bd8542938505",
		"chimera/W1/K1/overlap=false/invpar=false": "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"chimera/W1/K1/overlap=false/invpar=true":  "3f0903af7e8fecea17f775395ecf2dffdc60568503f974102c55e43e093fb04b",
		"chimera/W1/K1/overlap=true/invpar=false":  "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"chimera/W1/K1/overlap=true/invpar=true":   "32ce4d591aca65b8e24f61759f7b8af1097cb555e386de9a45abcbd39fe11922",
		"chimera/W1/K4/overlap=false/invpar=false": "3484bb479f9e5e6f3c2fda640b7428eaa9a41fd135c700f93812e5e389af975c",
		"chimera/W1/K4/overlap=false/invpar=true":  "3484bb479f9e5e6f3c2fda640b7428eaa9a41fd135c700f93812e5e389af975c",
		"chimera/W1/K4/overlap=true/invpar=false":  "408f587bfa30bfc08a98ce10d6283f115bdb2194e0c002b47f2457545e019fa2",
		"chimera/W1/K4/overlap=true/invpar=true":   "408f587bfa30bfc08a98ce10d6283f115bdb2194e0c002b47f2457545e019fa2",
		"chimera/W2/K1/overlap=false/invpar=false": "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"chimera/W2/K1/overlap=false/invpar=true":  "6bf83dd37f345a3560f545924d2ab2d32810ac31a748622e746abb84fbbeeeb7",
		"chimera/W2/K1/overlap=true/invpar=false":  "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"chimera/W2/K1/overlap=true/invpar=true":   "f2f27faca92023f9b3dcc4e75542935d5f8a78c7f186d2ada72591d0656a3b12",
		"chimera/W2/K4/overlap=false/invpar=false": "441e05fe7d00cfeb18d474ff38ae31f7c431a96421f52ea19637d3a566258a8d",
		"chimera/W2/K4/overlap=false/invpar=true":  "441e05fe7d00cfeb18d474ff38ae31f7c431a96421f52ea19637d3a566258a8d",
		"chimera/W2/K4/overlap=true/invpar=false":  "f6e828fb4c232453628254eba1aa4367e67fc380affbf7bb281c812c14fd694f",
		"chimera/W2/K4/overlap=true/invpar=true":   "f6e828fb4c232453628254eba1aa4367e67fc380affbf7bb281c812c14fd694f",
	}
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	if err := tensor.SetKernel(tensor.KernelTiled); err != nil {
		t.Fatal(err)
	}
	var overlapped hardware.Microseconds
	for _, method := range pipeline.Methods() {
		for _, w := range []int{1, 2} {
			for _, k := range []int{1, 4} {
				for _, overlap := range []bool{false, true} {
					for _, invPar := range []bool{false, true} {
						key := fmt.Sprintf("%s/W%d/K%d/overlap=%v/invpar=%v", method, w, k, overlap, invPar)
						got, ov := commitPendingDigest(t, Config{
							Method: method, Stages: 2, MicroBatches: 4, Replicas: w,
							RefreshSteps: k, OverlapRounds: overlap, InversionParallel: invPar,
						})
						overlapped += ov
						if got != want[key] {
							t.Errorf("%q: %q,", key, got)
						}
					}
				}
			}
		}
	}
	if overlapped == 0 {
		t.Error("no configuration ran refresh work while a commit was pending: the matrix does not exercise it")
	}
}

// commitPendingDigest trains three rounds of one configuration under the
// parent's packing costs and hashes what they compute; it also returns the
// refresh time the rounds ran while a commit was pending.
func commitPendingDigest(t *testing.T, cfg Config) (string, hardware.Microseconds) {
	t.Helper()
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}, cfg.RefreshSteps); err != nil {
		t.Fatal(err)
	}
	pinParentCosts(t, e)
	h := sha256.New()
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		for _, p := range m.Params() {
			hashMatrix(h, p.Grad)
		}
		opt.Step(5e-3)
		return nil
	})
	const rounds = 3
	k := cfg.RefreshSteps
	batches := bertBatches(t, rounds*k, 8)
	var overlapped hardware.Microseconds
	for i := 0; i < rounds; i++ {
		res, err := e.TrainRound(batches[i*k : (i+1)*k])
		if err != nil {
			t.Fatalf("%+v round %d: %v", cfg, i, err)
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
		overlapped += commitOverlap(e.LastTimeline())
	}
	return hex.EncodeToString(h.Sum(nil)), overlapped
}

// Vanilla rounds hold no refresh work, so pricing from shapes must leave
// their op lists as they were: at the paired benchmark's three model shapes
// (tiny, base, wide at 2 sequences per micro-batch, and tiny at the ring
// workload's 2 micro-batches) every family's plain schedule — orders and
// dependency edges, durations aside — equals the one the parent's packing
// costs lay out. Backward is twice forward by FLOPs, as it was by fiat.
func TestShapePricedVanillaSchedulesUnchanged(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   bert.Config
		micro int
	}{
		{"tiny", bert.TinyConfig(), 4},
		{"tiny-ring", bert.TinyConfig(), 2},
		{"base", bert.Config{VocabSize: 512, DModel: 64, DFF: 256, Heads: 4, Blocks: 2, SeqLen: 64}, 4},
		{"wide", bert.Config{VocabSize: 512, DModel: 128, DFF: 512, Heads: 4, Blocks: 2, SeqLen: 32}, 4},
	}
	for _, sh := range shapes {
		for _, method := range pipeline.Methods() {
			for _, k := range []int{1, 4, 8} {
				m, err := bert.New(sh.cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: sh.micro, RefreshSteps: k})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.reprice(2); err != nil {
					t.Fatal(err)
				}
				if c := e.ModeledCosts(); c.Backward != 2*c.Forward && c.Backward != 2*c.Forward+1 {
					t.Fatalf("%s: backward %d is not twice forward %d", sh.name, c.Backward, c.Forward)
				}
				want, err := pipeline.Build(method, pipeline.BuildConfig{
					Stages: 2, MicroBatches: sh.micro, Steps: k, Costs: parentCosts(e),
					DataParallelWidth: 1, IncludeOptimizerWork: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := e.Schedule()
				name := fmt.Sprintf("%s/%s/K%d", sh.name, method, k)
				if len(got.Ops) != len(want.Ops) {
					t.Fatalf("%s: %d ops, parent pricing lays out %d", name, len(got.Ops), len(want.Ops))
				}
				for i, op := range got.Ops {
					w := want.Ops[i]
					if op.Kind != w.Kind || op.Device != w.Device || op.Stage != w.Stage || op.MicroBatch != w.MicroBatch ||
						op.Step != w.Step || fmt.Sprint(op.Deps) != fmt.Sprint(w.Deps) {
						t.Fatalf("%s: op %d is %s %v, parent pricing %s %v", name, i, op.Label(), op.Deps, w.Label(), w.Deps)
					}
				}
				if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
					t.Fatalf("%s: device orders differ from the parent pricing's", name)
				}
			}
		}
	}
}

// MeasuredCosts prices the optimizer update as a step's commit — the
// longest OptStep event of each step, averaged over steps — not as the mean
// over every device's OptStep event, most of which only fold and arrive.
func TestMeasuredCostsPricesTheCommit(t *testing.T) {
	ev := func(kind pipeline.WorkKind, step int, start, end hardware.Microseconds) pipeline.Event {
		return pipeline.Event{Op: &pipeline.Op{Kind: kind, Step: step}, Start: start, End: end}
	}
	tl := &pipeline.Timeline{Devices: 2, Steps: 2, Events: [][]pipeline.Event{
		{ev(pipeline.Forward, 0, 0, 100), ev(pipeline.OptStep, 0, 100, 110), ev(pipeline.OptStep, 1, 900, 1600)},
		{ev(pipeline.Forward, 0, 0, 300), ev(pipeline.OptStep, 0, 300, 800), ev(pipeline.OptStep, 1, 1600, 1620)},
	}}
	if got := CommitDurations(tl); fmt.Sprint(got) != "[500 700]" {
		t.Fatalf("commit durations %v, want [500 700]", got)
	}
	c := MeasuredCosts(tl, 2)
	if c.OptStep != 600 || c.Forward != 200 {
		t.Fatalf("measured opt-step %d forward %d, want 600 and 200", c.OptStep, c.Forward)
	}
}
