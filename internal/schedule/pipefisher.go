// Package schedule implements PipeFisher's automatic work assignment
// (§3.1 of the paper): given a profiled timeline of a standard pipeline
// schedule, it packs the K-FAC curvature and inversion work into the
// pipeline bubbles according to the paper's dependency rules. One pass does
// the packing (packGeneration, pack.go) and two entry points read it: Assign
// reports the timing — how many pipeline steps one curvature/inverse refresh
// takes, the resulting accelerator utilization — and Executable emits the
// round as an op list the simulator and the training engine both run.
//
// The three assignment rules (§3.1), as implemented — by the analysis and
// the executable alike, so what Assign models is what the engine executes.
// Rules 1 and 2 are stated once, as each work item's inputs (workItem.deps
// and after, set by buildWorkQueue): the packing's gates and ready times,
// the carry's generation lags, the executable's window steps and its
// dependency edges all read them.
//
//  1. Curvature work for A_l (resp. B_l) of a micro-batch is assigned to a
//     bubble after the forward (resp. backward) of that micro-batch on the
//     layer's stage.
//  2. Inversion work for a factor is assigned after the curvature work of
//     its *layer pair* — A_l and B_l — for all micro-batches on every
//     device that owns the stage, and after the stage's sync-curvature
//     collectives when factors are sharded across owners or summed across
//     processes (Config.CrossProcess). The paper states the rule per
//     factor; real inversion needs the pair, because the factored Tikhonov
//     damping couples A_l and B_l through their traces, and the sync is
//     what makes a sharded or cross-process factor final.
//  3. Precondition work runs after the backward of all layers in a stage
//     and before the next pipeline step (inserted into the schedule itself
//     via pipeline.BuildConfig.IncludePrecondition — it is the only
//     per-step overhead).
//
// Work whose duration exceeds a bubble spills into subsequent bubbles,
// exactly as the paper describes ("otherwise, subsequent bubbles are
// utilized").
package schedule

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// FactorKind distinguishes the two Kronecker factors of a layer.
type FactorKind int

// Factor kinds.
const (
	FactorA FactorKind = iota // A_l = ⟨a a^T⟩, ready after forward
	FactorB                   // B_l = ⟨e e^T⟩, ready after backward
)

// Config controls the PipeFisher assignment.
type Config struct {
	// Method selects the base pipeline schedule: "gpipe", "1f1b",
	// "chimera".
	Method string
	// Stages, MicroBatches mirror pipeline.BuildConfig.
	Stages       int
	MicroBatches int
	// Costs provides all work durations.
	Costs pipeline.StageCosts
	// DataParallelWidth is W, the data-parallel replica count: replica
	// streams per stage for gpipe/1f1b, whole bidirectional pipeline
	// pairs for chimera.
	DataParallelWidth int
	// InversionParallel splits each stage's inversion units across the
	// devices holding that stage (the replica group for gpipe/1f1b, the
	// bidirectional pair for chimera) and adds sync-curvature collectives.
	InversionParallel bool
	// CrossProcess says the replica group spans processes (a multi-rank
	// transport group): every stage's factor sums cross a process boundary
	// before its inversions, so every owner of a stage gets a sync-curvature
	// item per generation whatever InversionParallel says. No other field
	// says it: DataParallelWidth counts the replica streams of this process,
	// and Costs.SyncCurvature is priced for in-process replica groups too,
	// whose factors need no exchange.
	CrossProcess bool
	// RefreshSteps is the round length K of the *executable* form: Executable
	// lays out K consecutive pipeline steps and packs one curvature/inversion
	// refresh into the bubbles of the whole window, the paper's multi-step
	// refresh rounds (§3.1 reports 1-4 steps per refresh). 0 or 1 yields the
	// degenerate one-step round. Assign ignores it: Assign *measures* how
	// many steps a refresh needs, Executable *takes* the round length as
	// given.
	RefreshSteps int
	// Overlap lets consecutive refresh windows overlap (Executable only):
	// refresh work that does not fit its own window's bubbles is not
	// serialized before the window's tail but *carried* — emitted as
	// generation-lagged ops (pipeline.Op.Generation = 1) that execute in
	// the early bubbles of the window, operating on the PREVIOUS window's
	// statistics generation, exactly where a serialized round would idle
	// (the first steps' bubbles open before the window's own statistics
	// exist). The carry set is computed as a fixed point so the steady-state
	// window is self-consistent: what spills out of this window is what the
	// next window's early bubbles absorb. When everything fits, the overlap
	// schedule is identical to the serialized one.
	Overlap bool
	// CarryDepth is the number of windows one refresh spans: carried work
	// lags one round, so it is 2 under Overlap (generation 0, the window's
	// own statistics, plus generation 1, carried from the previous window)
	// and 0 without. 0 resolves to that; any other value is an error.
	CarryDepth int
	// NoSplit disables spilling a work item across multiple bubbles
	// (every item must fit one bubble whole). The paper's rule —
	// "otherwise, subsequent bubbles are utilized" — corresponds to
	// NoSplit=false; the ablation bench quantifies what splitting buys.
	NoSplit bool
}

// maxSteps bounds the number of pipeline steps one refresh round may span
// (a safety net; realistic configurations need 1-10).
const maxSteps = 32

func (c Config) normalize() (Config, error) {
	if !slices.Contains(pipeline.Methods(), c.Method) {
		return c, fmt.Errorf("schedule: unknown method %q (want one of %v)", c.Method, pipeline.Methods())
	}
	if c.RefreshSteps <= 0 {
		c.RefreshSteps = 1
	}
	if c.RefreshSteps > maxSteps {
		return c, fmt.Errorf("schedule: RefreshSteps %d exceeds the %d-step round limit", c.RefreshSteps, maxSteps)
	}
	if c.CarryDepth != 0 && c.CarryDepth != 2 {
		return c, fmt.Errorf("schedule: CarryDepth %d: carried work lags one round, so the depth is 2 under Overlap (0 resolves it)", c.CarryDepth)
	}
	if c.CarryDepth == 2 && !c.Overlap {
		return c, fmt.Errorf("schedule: CarryDepth needs Overlap")
	}
	if c.Overlap {
		c.CarryDepth = 2
	}
	if c.DataParallelWidth <= 0 {
		c.DataParallelWidth = 1
	}
	return c, nil
}

// Result reports the outcome of a PipeFisher assignment.
type Result struct {
	// Timeline is the augmented timeline: the base schedule (including
	// per-step precondition work) plus the K-FAC events packed into its
	// bubbles.
	Timeline *pipeline.Timeline
	// VanillaTimeline is the base schedule without any K-FAC work, for
	// comparison (the "w/ Adam" rows of Figures 3 and 4).
	VanillaTimeline *pipeline.Timeline
	// RefreshSteps is the number of pipeline steps needed to refresh the
	// curvature and inverse matrices once (per stage, the max over
	// stages). The paper reports 1-4 for its configurations.
	RefreshSteps int
	// RefreshStepsPerStage breaks RefreshSteps down by stage.
	RefreshStepsPerStage []int
	// StepTime is the steady-state step time with PipeFisher (precondition
	// included); VanillaStepTime is the base schedule's.
	StepTime        hardware.Microseconds
	VanillaStepTime hardware.Microseconds
	// Utilization counts all colored work over the refresh window;
	// VanillaUtilization is the base schedule's over its own window.
	Utilization        float64
	VanillaUtilization float64
	// KFACWorkTime is the total curvature+inversion(+sync) time packed.
	KFACWorkTime hardware.Microseconds
	// Unassigned counts work items that did not fit within the 32-step limit
	// (0 for all realistic configurations).
	Unassigned int
}

// workItem is one schedulable unit of K-FAC work.
type workItem struct {
	kind     pipeline.WorkKind
	stage    int
	device   int
	replica  int // data-parallel replica owning the device
	factor   int // index into Costs.InversionUnits / CurvatureUnits
	micro    int // micro-batch for curvature, -1 otherwise
	duration hardware.Microseconds
	readyAt  hardware.Microseconds
	// pieces are the bubble intervals the packer booked for the item, in
	// time order (one unless the item spilled across bubbles); placed marks
	// whether it found room at all. Reset every placement pass.
	pieces []pipeline.Gap
	placed bool
	// deps are the items whose output this one reads, in edge order: a
	// sync-curvature's are its stage's curvature; an inversion's first step
	// reads the curvature of its factor, then of the pair factor, then the
	// stage's syncs; a later chain step reads prev. after holds, on an
	// inversion's first step only, the items that swap in the inverses of
	// its layer pair (its factor's first): the EMA fold order across
	// generations. Every rule of the packing, the carry, the window steps
	// and the edges is read from these two lists; a sync's list is shared
	// per stage, a first step's per (stage, factor).
	deps, after []*workItem
	// gen is the item's generation lag in the overlapped executable form:
	// 0 = the window's own statistics generation; 1 = carried from the
	// previous window (the item spilled out of its own window's bubbles and
	// executes in the next window's early bubbles instead). Always 0 for
	// Assign and for serialized rounds.
	gen int
	// chain is 0 for an inversion that runs as one item and k >= 1 for step
	// k of its factor's inversion chain (StageCosts.InversionChains); prev
	// is the chain's previous step (nil for the first).
	chain int
	prev  *workItem
	// swaps marks the inversion item that replaces the cached inverse: a
	// whole inversion, or the last step of a chain.
	swaps bool
}

// inputs visits what the item waits for within one window: its
// same-generation deps, then its older-generation after items. Deeper-lag
// work of other generations binds nothing else; round sequencing orders it.
func (it *workItem) inputs(visit func(*workItem)) {
	for _, d := range it.deps {
		if d.gen == it.gen {
			visit(d)
		}
	}
	for _, a := range it.after {
		if a.gen > it.gen {
			visit(a)
		}
	}
}

// start and end bound a placed item: the start of its first piece (what
// orders real execution) and the end of its last.
func (it *workItem) start() hardware.Microseconds { return it.pieces[0].Start }
func (it *workItem) end() hardware.Microseconds   { return it.pieces[len(it.pieces)-1].End }

// packRound lays the base schedule (per-step precondition included) out
// over the given number of steps, times it, and packs one refresh's work
// items into its bubbles — the front half Assign and Executable share.
func packRound(cfg Config, steps int) (*pipeline.Schedule, *pipeline.Timeline, []*workItem, error) {
	base, err := buildBase(cfg, steps, true)
	if err != nil {
		return nil, nil, nil, err
	}
	tl, err := pipeline.Run(base)
	if err != nil {
		return nil, nil, nil, err
	}
	items := buildWorkQueue(cfg, tl, base.Placement)
	packWindow(items, tl, cfg)
	return base, tl, items, nil
}

// Assign is the timing analysis of the packing: it simulates enough steps
// of the base schedule (per-step precondition work included) for one
// refresh, packs the refresh into the bubbles with the same pass Executable
// emits op lists from, and reports where the pieces landed — the augmented
// timeline, how many steps the refresh spans, the utilization. It measures
// the window of ONE serialized refresh rather than taking a round shape as
// given: RefreshSteps, Overlap and CarryDepth are ignored.
func Assign(cfg Config) (*Result, error) {
	cfg.RefreshSteps = 0
	cfg.Overlap, cfg.CarryDepth = false, 0
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// Estimate the number of steps a refresh round needs from the
	// (curvature+inversion)/bubble ratio and simulate a couple extra — and
	// more, up to maxSteps, when the estimate proves short (the ratio knows
	// nothing of readiness and gate waits), so the window reported is one
	// the refresh fits.
	oneStep, err := buildBase(cfg, 1, false)
	if err != nil {
		return nil, err
	}
	oneTL, err := pipeline.Run(oneStep)
	if err != nil {
		return nil, err
	}
	steps := min(int(estimateRatio(cfg, oneTL))+2, maxSteps)
	var baseTL *pipeline.Timeline
	var items []*workItem
	for {
		_, baseTL, items, err = packRound(cfg, steps)
		if err != nil {
			return nil, err
		}
		spilled := slices.ContainsFunc(items, func(it *workItem) bool { return !it.placed })
		if !spilled || steps == maxSteps {
			break
		}
		steps = min(2*steps, maxSteps)
	}
	vanillaSched, err := buildBase(cfg, steps, false)
	if err != nil {
		return nil, err
	}
	vanillaTL, err := pipeline.Run(vanillaSched)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Timeline:             overlay(baseTL),
		VanillaTimeline:      vanillaTL,
		RefreshSteps:         1,
		RefreshStepsPerStage: make([]int, cfg.Stages),
		StepTime:             steadyStepTime(baseTL),
		VanillaStepTime:      steadyStepTime(vanillaTL),
		VanillaUtilization:   vanillaTL.Utilization(),
	}
	for _, it := range items {
		res.KFACWorkTime += it.duration
		if !it.placed {
			res.Unassigned++
			continue
		}
		for _, p := range it.pieces {
			op := pipeline.Op{
				Kind: it.kind, Device: it.device, Stage: it.stage, Replica: it.replica, MicroBatch: it.micro, Step: -1,
				Duration: p.End - p.Start,
			}
			res.Timeline.Events[it.device] = append(res.Timeline.Events[it.device], pipeline.Event{Op: &op, Start: p.Start, End: p.End})
		}
		// The stage's refresh spans the steps until its last item completes.
		span := stepOf(it.end(), baseTL.StepEnd) + 1
		res.RefreshStepsPerStage[it.stage] = max(res.RefreshStepsPerStage[it.stage], span)
		res.RefreshSteps = max(res.RefreshSteps, span)
	}
	for _, evs := range res.Timeline.Events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
	// Utilization over the refresh round (whole steps), so repeated rounds
	// tile the timeline.
	res.Utilization = res.Timeline.UtilizationOver(0, baseTL.StepEnd[min(res.RefreshSteps, len(baseTL.StepEnd))-1])
	return res, nil
}

// overlay copies a profiled timeline so the K-FAC work packed into its
// bubbles can be drawn on top of it.
func overlay(base *pipeline.Timeline) *pipeline.Timeline {
	out := &pipeline.Timeline{
		Name:     base.Name + "+PipeFisher",
		Devices:  base.Devices,
		Steps:    base.Steps,
		Events:   make([][]pipeline.Event, base.Devices),
		Makespan: base.Makespan,
		StepEnd:  append([]hardware.Microseconds(nil), base.StepEnd...),
	}
	for d := range out.Events {
		out.Events[d] = append([]pipeline.Event(nil), base.Events[d]...)
	}
	return out
}

func buildBase(cfg Config, steps int, precondition bool) (*pipeline.Schedule, error) {
	return pipeline.Build(cfg.Method, pipeline.BuildConfig{
		Stages:               cfg.Stages,
		MicroBatches:         cfg.MicroBatches,
		Steps:                steps,
		Costs:                cfg.Costs,
		DataParallelWidth:    cfg.DataParallelWidth,
		IncludeOptimizerWork: true,
		IncludePrecondition:  precondition,
	})
}

// estimateRatio computes (curvature+inversion)/bubble per step: the paper's
// key quantity predicting the refresh interval (§3.3).
func estimateRatio(cfg Config, oneStep *pipeline.Timeline) float64 {
	var kfacWork float64
	perStageCurv := float64(cfg.Costs.CurvaturePerMicroBatch) * float64(cfg.MicroBatches)
	perStageInv := float64(cfg.Costs.InversionTotal())
	// Chimera devices hold two stages each; every replica group (the W
	// replica streams of gpipe/1f1b, the W bidirectional pairs of chimera)
	// computes curvature for its own micro-batches, and replicas duplicate
	// the inversion work unless InversionParallel shards it.
	w := cfg.DataParallelWidth
	kfacWork = float64(cfg.Stages*w)*perStageCurv + float64(cfg.Stages)*perStageInv
	if !cfg.InversionParallel && w > 1 {
		kfacWork += float64(cfg.Stages*(w-1)) * perStageInv
	}
	bubble := float64(oneStep.TotalBubble())
	if bubble <= 0 {
		return float64(maxSteps)
	}
	return kfacWork / bubble
}

// buildWorkQueue creates the K-FAC work items of one refresh round with
// their ready times taken from the profiled timeline (rule 1) and their
// inputs (rule 2), every item after the items it reads. Who holds a stage's
// parameters, and for which micro-batches, is the base schedule's
// placement: each of the W replicas of gpipe/1f1b owns all N micro-batches
// of its stream; a chimera replica contributes a device pair, the down
// device owning [0, N/2) and the up device [N/2, N).
func buildWorkQueue(cfg Config, tl *pipeline.Timeline, place *pipeline.Placement) []*workItem {
	var items []*workItem
	nFactors := len(cfg.Costs.InversionUnits)
	for stage, owners := range place.Owners {
		// Curvature: one item per (owner device, micro-batch, factor).
		// Factor readiness: A factors (even index) after the forward of
		// the micro-batch at this stage; B factors (odd) after backward.
		micros := 0
		for _, ow := range owners {
			micros += ow.MicroHi - ow.MicroLo
		}
		curv := byFactor(nFactors, micros)
		block := make([]workItem, nFactors*micros) // the curvature items, in one allocation
		stageCurv := make([]*workItem, 0, len(block))
		for _, ow := range owners {
			for m := ow.MicroLo; m < ow.MicroHi; m++ {
				fEv, okF := findStepEvent(tl, pipeline.Forward, stage, m, ow.Device)
				bEv, okB := findStepEvent(tl, pipeline.Backward, stage, m, ow.Device)
				if !okF || !okB {
					continue
				}
				for f := 0; f < nFactors; f++ {
					ready := fEv.End
					if factorKindOf(f) == FactorB {
						ready = bEv.End
					}
					it := &block[len(stageCurv)]
					*it = workItem{
						kind: pipeline.Curvature, stage: stage, device: ow.Device,
						replica: ow.Replica, factor: f, micro: m,
						duration: cfg.Costs.CurvatureUnits[f],
						readyAt:  ready,
					}
					items = append(items, it)
					curv[f] = append(curv[f], it)
					stageCurv = append(stageCurv, it)
				}
			}
		}
		// Sync-curvature collectives when factors are split across owners or
		// cross processes, each after all of the stage's curvature. One the
		// group's processes need books at least 1 µs even when priced at
		// zero (measured costs of a round that exchanged nothing), so it
		// has a piece wherever it is placed.
		var syncs []*workItem
		if cfg.CrossProcess || cfg.InversionParallel && len(owners) > 1 && cfg.Costs.SyncCurvature > 0 {
			for _, ow := range owners {
				it := &workItem{
					kind: pipeline.SyncCurvature, stage: stage, device: ow.Device,
					replica: ow.Replica, factor: -1, micro: -1,
					duration: max(cfg.Costs.SyncCurvature, 1),
					deps:     stageCurv,
				}
				items = append(items, it)
				syncs = append(syncs, it)
			}
		}
		// Inversion: one item per factor, split round-robin across the
		// stage's owner group (the replica group for gpipe/1f1b, the W
		// bidirectional pairs for chimera) when inversion parallelism is
		// on — each owner inverts its shard, then broadcasts; otherwise
		// every replica duplicates the whole stage's inversion work, on its
		// first owner (chimera's down device).
		// A factor with an inversion chain gets one item per step, each
		// following the one before it.
		firstDeps := withPairs(curv, syncs)
		swaps := byFactor(nFactors, len(owners))
		firsts := len(items)
		addInv := func(ow pipeline.Owner, f int) {
			steps := cfg.Costs.Chain(f)
			chained := len(steps) > 0
			if !chained {
				steps = cfg.Costs.InversionUnits[f : f+1]
			}
			var prev *workItem
			for k, dur := range steps {
				it := &workItem{
					kind: pipeline.Inversion, stage: stage, device: ow.Device,
					replica: ow.Replica, factor: f, micro: -1,
					duration: dur,
					deps:     firstDeps[f],
					prev:     prev,
					swaps:    k == len(steps)-1,
				}
				if prev != nil {
					it.deps = []*workItem{prev}
				}
				if chained {
					it.chain = k + 1
				}
				items = append(items, it)
				prev = it
			}
			swaps[f] = append(swaps[f], prev)
		}
		if cfg.InversionParallel && len(owners) > 1 {
			for f := 0; f < nFactors; f++ {
				addInv(owners[f%len(owners)], f)
			}
		} else {
			for i, ow := range owners {
				if i > 0 && owners[i-1].Replica == ow.Replica {
					continue
				}
				for f := 0; f < nFactors; f++ {
					addInv(ow, f)
				}
			}
		}
		after := withPairs(swaps, nil)
		for _, it := range items[firsts:] {
			if it.prev == nil {
				it.after = after[it.factor]
			}
		}
	}
	return items
}

// byFactor returns one empty list per factor with room for per items, all
// in one allocation; the lists have room for the pair of an odd last factor.
func byFactor(nFactors, per int) [][]*workItem {
	n := nFactors + nFactors%2
	buf := make([]*workItem, n*per)
	lists := make([][]*workItem, n)
	for f := range lists {
		lists[f] = buf[f*per : f*per : (f+1)*per]
	}
	return lists
}

// withPairs returns, per factor f of a byFactor set, f's list followed by
// its pair factor's and then tail: the lists share one allocation.
func withPairs(lists [][]*workItem, tail []*workItem) [][]*workItem {
	size := 0
	for _, l := range lists {
		size += 2*len(l) + len(tail)
	}
	buf := make([]*workItem, 0, size)
	out := make([][]*workItem, len(lists))
	for f := range out {
		start := len(buf)
		buf = append(buf, lists[f]...)
		buf = append(buf, lists[pairFactor(f)]...)
		buf = append(buf, tail...)
		out[f] = buf[start:len(buf):len(buf)]
	}
	return out
}

// factorKindOf maps a factor index to A (even) or B (odd), matching
// arch.FactorDims order (A then B per layer).
func factorKindOf(f int) FactorKind {
	if f%2 == 0 {
		return FactorA
	}
	return FactorB
}

// findStepEvent locates the step-0 event of the given kind/stage/micro on a
// device.
func findStepEvent(tl *pipeline.Timeline, kind pipeline.WorkKind, stage, micro, device int) (pipeline.Event, bool) {
	for _, e := range tl.Events[device] {
		if e.Op.Kind == kind && e.Op.Stage == stage && e.Op.MicroBatch == micro && e.Op.Step == 0 {
			return e, true
		}
	}
	return pipeline.Event{}, false
}

func stepOf(t hardware.Microseconds, stepEnd []hardware.Microseconds) int {
	for k, end := range stepEnd {
		if t <= end {
			return k
		}
	}
	return len(stepEnd) - 1
}

// steadyStepTime returns the duration of a steady-state step (the second
// step when available, else the first).
func steadyStepTime(tl *pipeline.Timeline) hardware.Microseconds {
	if len(tl.StepEnd) >= 2 {
		return tl.StepEnd[1] - tl.StepEnd[0]
	}
	if len(tl.StepEnd) == 1 {
		return tl.StepEnd[0]
	}
	return tl.Makespan
}
