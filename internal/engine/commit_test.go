package engine

import (
	"fmt"
	"testing"

	"repro/internal/bert"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// parentCosts is the packing cost shape the engine used before it priced
// ops from the model's shapes: forward 100, backward 200, precondition 25,
// opt-step 10, every curvature unit 6 and inversion unit 10, sync-grad 60
// across replicas, sync-curvature 20 across replicas or inversion shards.
func parentCosts(e *Engine) pipeline.StageCosts {
	c := pipeline.StageCosts{Forward: 100, Backward: 200, Precondition: 25, OptStep: 10}
	if e.Replicas() > 1 {
		c.SyncGrad = 60
	}
	if e.Replicas() > 1 || e.cfg.InversionParallel {
		c.SyncCurvature = 20
	}
	for i := 0; i < 2*len(e.StageLayers(0)); i++ {
		c.CurvatureUnits = append(c.CurvatureUnits, 6)
		c.CurvaturePerMicroBatch += 6
		c.InversionUnits = append(c.InversionUnits, 10)
	}
	return c
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
// computes: the reference matrix's BERT configurations that refresh every
// round at K {1, 4} — gpipe, 1f1b and chimera x W {1, 2} x overlap x
// inversion sharding — train exactly what the reference computes over three
// rounds, and some of them ran refresh work while a commit was pending.
func TestCommitPendingIdentity(t *testing.T) {
	var overlapped hardware.Microseconds
	for _, c := range referenceMatrix(tensor.ActiveKernel()) {
		if k := c.cfg.RefreshSteps; c.model == "bert" && k != 2 && c.every == k {
			requireMatchesReference(t, c, 3, nil, func(e *Engine) { overlapped += commitOverlap(e.LastTimeline()) })
		}
	}
	if overlapped == 0 {
		t.Error("no configuration ran refresh work while a commit was pending: the matrix does not exercise it")
	}
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
				if c := e.priced; c.Backward != 2*c.Forward && c.Backward != 2*c.Forward+1 {
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
