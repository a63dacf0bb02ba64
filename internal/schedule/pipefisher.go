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
// the executable alike, so what Assign models is what the engine executes:
//
//  1. Curvature work for A_l (resp. B_l) of a micro-batch is assigned to a
//     bubble after the forward (resp. backward) of that micro-batch on the
//     layer's stage.
//  2. Inversion work for a factor is assigned after the curvature work of
//     its *layer pair* — A_l and B_l — for all micro-batches on every
//     device that owns the stage, and after the stage's sync-curvature
//     collectives when factors are sharded across owners. The paper states
//     the rule per factor; real inversion needs the pair, because the
//     factored Tikhonov damping couples A_l and B_l through their traces,
//     and the sync is what makes a sharded factor final.
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
	// InversionCostMultiplier scales the per-factor inversion durations
	// (default 1). Shampoo-style extra work (§5) uses this to model
	// eigendecompositions, which cost an order of magnitude more than a
	// Cholesky inversion of the same matrix; the packer splits such long
	// items across multiple bubbles automatically.
	InversionCostMultiplier float64
	// RefreshSteps is the round length K of the *executable* form: Executable
	// lays out K consecutive pipeline steps and packs one curvature/inversion
	// refresh into the bubbles of the whole window, the paper's multi-step
	// refresh rounds (§3.1 reports 1-4 steps per refresh). 0 or 1 yields the
	// degenerate one-step round. Assign ignores it: Assign *measures* how
	// many steps a refresh needs, Executable *takes* the round length as
	// given.
	RefreshSteps int
	// FrontLoadRefresh pins every item of the refresh to the window's first
	// step: packed into that step's bubbles where they fit, spilled right
	// before its tail otherwise — the legacy skip-cadence placement
	// expressed as a round (steps 1..K-1 of the window run fully stale with
	// the just-refreshed inverses). The default (false) spreads the refresh
	// across the whole window's bubbles, the paper's multi-step schedule
	// shape, in which each step preconditions with the freshest inverses
	// completed by that step. Front-loaded rounds are bit-identical to the
	// skip cadence at the same refresh interval, which the engine's
	// round-vs-skip identity tests exploit.
	FrontLoadRefresh bool
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
	// schedule is identical to the serialized one. Incompatible with
	// FrontLoadRefresh.
	Overlap bool
	// CarryDepth bounds how many consecutive windows one refresh may
	// pipeline across under Overlap: Op.Generation values run
	// 0..CarryDepth-1, where generation g ops execute g windows after
	// their statistics were collected. 0 defaults to 2 — the classic
	// overlap shape (own window plus one carried window). Depths > 2 give
	// the packer headroom when a refresh exceeds two windows' bubbles:
	// work that would otherwise serialize before the round's tail keeps
	// pipelining into the following windows' early bubbles instead. The
	// per-window work is unchanged — deeper carry only adds placement
	// freedom. Ignored without Overlap.
	CarryDepth int
	// MaxSteps bounds the number of pipeline steps one refresh round may
	// span (a safety net; realistic configurations need 1-10).
	MaxSteps int
	// NoSplit disables spilling a work item across multiple bubbles
	// (every item must fit one bubble whole). The paper's rule —
	// "otherwise, subsequent bubbles are utilized" — corresponds to
	// NoSplit=false; the ablation bench quantifies what splitting buys.
	NoSplit bool
}

func (c Config) normalize() (Config, error) {
	if !slices.Contains(pipeline.Methods(), c.Method) {
		return c, fmt.Errorf("schedule: unknown method %q (want one of %v)", c.Method, pipeline.Methods())
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 32
	}
	if c.RefreshSteps <= 0 {
		c.RefreshSteps = 1
	}
	if c.RefreshSteps > c.MaxSteps {
		return c, fmt.Errorf("schedule: RefreshSteps %d exceeds MaxSteps %d", c.RefreshSteps, c.MaxSteps)
	}
	if c.Overlap && c.FrontLoadRefresh {
		return c, fmt.Errorf("schedule: Overlap and FrontLoadRefresh are mutually exclusive (front-loading pins the whole refresh to the window's first step; overlap carries spill into the next window)")
	}
	if c.CarryDepth < 0 {
		return c, fmt.Errorf("schedule: CarryDepth %d is negative", c.CarryDepth)
	}
	if c.CarryDepth == 1 {
		return c, fmt.Errorf("schedule: CarryDepth 1 means no carry — use Overlap=false, or CarryDepth >= 2")
	}
	if c.CarryDepth > 1 && !c.Overlap {
		return c, fmt.Errorf("schedule: CarryDepth needs Overlap")
	}
	if c.Overlap && c.CarryDepth == 0 {
		c.CarryDepth = 2
	}
	if c.DataParallelWidth <= 0 {
		c.DataParallelWidth = 1
	}
	if c.InversionCostMultiplier <= 0 {
		c.InversionCostMultiplier = 1
	}
	if c.InversionCostMultiplier != 1 {
		scaled := make([]hardware.Microseconds, len(c.Costs.InversionUnits))
		for i, u := range c.Costs.InversionUnits {
			scaled[i] = hardware.Microseconds(float64(u) * c.InversionCostMultiplier)
		}
		c.Costs.InversionUnits = scaled
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
	// Unassigned counts work items that did not fit within MaxSteps
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
	// blocked distinguishes WHY a placement pass left the item unplaced:
	// true means a scheduling gate (the generation's curvature or sync
	// spilled, or a deeper inversion of the layer pair did) deferred
	// it, false means it simply found no bubble. Deep-carry promotion only
	// moves blocked items past generation 1 — lagging a capacity-starved
	// item deeper buys nothing (it is already ready at window start), but a
	// gated item one lag deeper decouples from the spilled gate and becomes
	// placeable. Reset every placement pass.
	blocked bool
	// wstep is the step of the refresh window the item executes in
	// (0-based; set by assignWindowSteps for the executable form).
	wstep int
	// gen is the item's generation lag in the overlapped executable form:
	// 0 = the window's own statistics generation; 1 = carried from the
	// previous window (the item spilled out of its own window's bubbles and
	// executes in the next window's early bubbles instead). Always 0 for
	// Assign and for serialized rounds.
	gen int
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
// given: RefreshSteps, FrontLoadRefresh, Overlap and CarryDepth are ignored.
func Assign(cfg Config) (*Result, error) {
	cfg.RefreshSteps, cfg.FrontLoadRefresh = 0, false
	cfg.Overlap, cfg.CarryDepth = false, 0
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// Estimate the number of steps a refresh round needs from the
	// (curvature+inversion)/bubble ratio and simulate a couple extra — and
	// more, up to MaxSteps, when the estimate proves short (the ratio knows
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
	steps := min(int(estimateRatio(cfg, oneTL))+2, cfg.MaxSteps)
	var baseTL *pipeline.Timeline
	var items []*workItem
	for {
		_, baseTL, items, err = packRound(cfg, steps)
		if err != nil {
			return nil, err
		}
		spilled := slices.ContainsFunc(items, func(it *workItem) bool { return !it.placed })
		if !spilled || steps == cfg.MaxSteps {
			break
		}
		steps = min(2*steps, cfg.MaxSteps)
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
		Timeline:             overlay(baseTL, "+PipeFisher"),
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
		addPieces(res.Timeline, it.pieces, pipeline.Op{
			Kind: it.kind, Device: it.device, Stage: it.stage, Replica: it.replica, MicroBatch: it.micro, Step: -1,
		})
		// The stage's refresh spans the steps until its last item completes.
		span := stepOf(it.end(), baseTL.StepEnd) + 1
		res.RefreshStepsPerStage[it.stage] = max(res.RefreshStepsPerStage[it.stage], span)
		res.RefreshSteps = max(res.RefreshSteps, span)
	}
	sortEvents(res.Timeline)
	// Utilization over the refresh round (whole steps), so repeated rounds
	// tile the timeline.
	res.Utilization = res.Timeline.UtilizationOver(0, baseTL.StepEnd[min(res.RefreshSteps, len(baseTL.StepEnd))-1])
	return res, nil
}

// overlay copies a profiled timeline so extra work packed into its bubbles
// can be drawn on top of it.
func overlay(base *pipeline.Timeline, suffix string) *pipeline.Timeline {
	out := &pipeline.Timeline{
		Name:     base.Name + suffix,
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

// addPieces draws one event per booked piece of an extra-work item; op
// describes the item (its Device is the pieces' device).
func addPieces(tl *pipeline.Timeline, pieces []pipeline.Gap, op pipeline.Op) {
	for _, p := range pieces {
		piece := op
		piece.Duration = p.End - p.Start
		tl.Events[op.Device] = append(tl.Events[op.Device], pipeline.Event{Op: &piece, Start: p.Start, End: p.End})
	}
}

// sortEvents restores time order on every device after addPieces.
func sortEvents(tl *pipeline.Timeline) {
	for _, evs := range tl.Events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
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
		return float64(cfg.MaxSteps)
	}
	return kfacWork / bubble
}

// buildWorkQueue creates the K-FAC work items of one refresh round with
// their ready times taken from the profiled timeline (rules 1 and 2). Who
// holds a stage's parameters, and for which micro-batches, is the base
// schedule's placement: each of the W replicas of gpipe/1f1b owns all N
// micro-batches of its stream; a chimera replica contributes a device pair,
// the down device owning [0, N/2) and the up device [N/2, N).
func buildWorkQueue(cfg Config, tl *pipeline.Timeline, place *pipeline.Placement) []*workItem {
	var items []*workItem
	nFactors := len(cfg.Costs.InversionUnits)
	for stage, owners := range place.Owners {
		// Curvature: one item per (owner device, micro-batch, factor).
		// Factor readiness: A factors (even index) after the forward of
		// the micro-batch at this stage; B factors (odd) after backward.
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
					items = append(items, &workItem{
						kind: pipeline.Curvature, stage: stage, device: ow.Device,
						replica: ow.Replica, factor: f, micro: m,
						duration: cfg.Costs.CurvatureUnits[f],
						readyAt:  ready,
					})
				}
			}
		}
		// Sync-curvature collectives when factors are split across owners.
		// Created before the inversion items: inversions depend on their
		// stage's sync ops, and work that does not fit the bubbles keeps
		// its creation order at the end of the device's pre-tail op list —
		// a sync created after the inversions would be ordered after ops
		// that wait on it, deadlocking the executable form.
		if cfg.InversionParallel && len(owners) > 1 && cfg.Costs.SyncCurvature > 0 {
			for _, ow := range owners {
				items = append(items, &workItem{
					kind: pipeline.SyncCurvature, stage: stage, device: ow.Device,
					replica: ow.Replica, factor: -1, micro: -1,
					duration: cfg.Costs.SyncCurvature,
					readyAt:  0, // after the stage's curvature; set by packGeneration
				})
			}
		}
		// Inversion: one item per factor, split round-robin across the
		// stage's owner group (the replica group for gpipe/1f1b, the W
		// bidirectional pairs for chimera) when inversion parallelism is
		// on — each owner inverts its shard, then broadcasts; otherwise
		// every replica duplicates the whole stage's inversion work, on its
		// first owner (chimera's down device).
		addInv := func(ow pipeline.Owner, f int) {
			items = append(items, &workItem{
				kind: pipeline.Inversion, stage: stage, device: ow.Device,
				replica: ow.Replica, factor: f, micro: -1,
				duration: cfg.Costs.InversionUnits[f],
				// Actual readiness (after all curvature for this factor is
				// *placed*) is enforced during packing; this is the lower
				// bound from rule 2's data dependency.
				readyAt: 0,
			})
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
	}
	return items
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
