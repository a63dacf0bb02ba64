package schedule

import (
	"fmt"
	"sort"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// Executable builds the *executable* form of one K-FAC refresh round: the
// base pipeline schedule laid out over Config.RefreshSteps consecutive
// pipeline steps (each with its own per-step precondition and optimizer
// tail) with the curvature and inversion work of ONE refresh inserted into
// the devices' op orders at the bubble positions the PipeFisher packing
// chose — across all of the round's steps, exactly the paper's 2-4-step
// refresh windows — and with real dependency edges wired so the op list can
// be *executed*: by the timing simulator and by internal/engine's real
// training executor alike. This is the single schedule form the simulator
// and the execution engine share; RefreshSteps = 1 is the degenerate
// one-step round (the historical form).
//
// Dependency edges are the package doc's rules, which the packing pass
// gates placement on too — so the packed per-device positions can never
// contradict the edges:
//
//   - Curvature of (stage, micro, factor) depends on the forward (A
//     factors) or backward (B factors) of that micro-batch on the owning
//     device in the round's FIRST step (rule 1): a round folds the
//     statistics of the window's first batch, and spills the compute into
//     whichever later bubbles the packer found.
//   - Sync-curvature (when present) depends on all curvature of its stage.
//   - Inversion of a factor depends on every curvature op of its layer
//     pair across all owning devices and on its stage's sync ops (rule 2).
//   - The Precondition op of step j additionally depends on the inversion
//     ops of its stage that the packer assigned to steps <= j, so each step
//     deterministically preconditions with the freshest inverses that have
//     completed by that step — and with the previous refresh's (stale)
//     inverses for factors whose inversion lands in a later bubble of the
//     window, the staleness discipline of §3.1. The round's LAST step
//     depends on every inversion of the stage, so one round always
//     completes one full refresh.
//
// Work that does not fit the round's bubbles is appended at the end of the
// last step's pre-tail order (execution can always complete; only the
// timing degrades), and inversion work whose curvature spilled is deferred
// the same way so cross-device waits can never cycle.
//
// With Config.Overlap the spill is not serialized but *carried*: the
// schedule describes the steady state of overlapping windows (packWindow),
// in which the refresh work that cannot fit its own window executes in
// FOLLOWING windows' early bubbles as generation-lagged ops (Op.Generation
// = g means the op runs g windows after its statistics were collected, g up
// to Config.CarryDepth-1) operating on a previous window's statistics pool.
// Edges only bind ops of one generation, except that a generation's
// inversions of a layer additionally depend on that layer's deeper-lagged
// inversions, keeping the per-layer EMA fold order sequential across
// generations. A serialized round is the same steady state at depth 1.
func Executable(cfg Config) (*pipeline.Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	k := cfg.RefreshSteps
	base, tl, items, err := packRound(cfg, k)
	if err != nil {
		return nil, err
	}
	assignWindowSteps(items, tl, cfg)

	s := &pipeline.Schedule{
		Name:         base.Name + "+PipeFisher",
		Devices:      base.Devices,
		Stages:       base.Stages,
		MicroBatches: base.MicroBatches,
		Steps:        k,
		Ops:          append([]*pipeline.Op(nil), base.Ops...),
		Order:        make([][]int, base.Devices),
		// The K-FAC ops sit on their stage's owners; forwards and backwards
		// are the base's own ops, so its placement is this schedule's.
		Placement: base.Placement,
	}

	// Lookup of the FIRST step's forward/backward ops by (kind, stage,
	// micro, device) — the statistics sources of the round's curvature.
	baseID := make(map[[4]int]int, len(base.Ops))
	for _, op := range base.Ops {
		if op.Step == 0 && (op.Kind == pipeline.Forward || op.Kind == pipeline.Backward) {
			baseID[[4]int{int(op.Kind), op.Stage, op.MicroBatch, op.Device}] = op.ID
		}
	}

	// Create the K-FAC ops. Curvature first so inversion/sync deps can
	// reference them. All data-dependency maps are keyed by generation:
	// edges only bind ops of the same generation (a carried op's same-
	// generation peers that already ran did so in the previous window), plus
	// the explicit cross-generation fold-order edges on inversions.
	itemOp := make(map[*workItem]*pipeline.Op, len(items))
	curvIDs := make(map[[3]int][]int)            // (gen, stage, factor) -> curvature op ids
	stageCurvIDs := make(map[[2]int][]int)       // (gen, stage)
	syncIDs := make(map[[2]int][]int)            // (gen, stage)
	invOps := make(map[int][]*pipeline.Op)       // stage -> inversion ops, both generations
	invGenOps := make(map[[3]int][]*pipeline.Op) // (gen, stage, factor)
	newOp := func(it *workItem) *pipeline.Op {
		op := &pipeline.Op{
			ID: len(s.Ops), Kind: it.kind, Device: it.device, Stage: it.stage,
			Replica: it.replica, MicroBatch: it.micro, Factor: it.factor, Step: it.wstep,
			Generation: it.gen, Duration: max(it.duration, 1),
		}
		s.Ops = append(s.Ops, op)
		itemOp[it] = op
		return op
	}
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		op := newOp(it)
		if it.gen == 0 {
			depKind := pipeline.Forward
			if factorKindOf(it.factor) == FactorB {
				depKind = pipeline.Backward
			}
			if id, ok := baseID[[4]int{int(depKind), it.stage, it.micro, it.device}]; ok {
				op.Deps = append(op.Deps, id)
			} else {
				return nil, fmt.Errorf("schedule: no %v op for stage %d micro %d device %d",
					depKind, it.stage, it.micro, it.device)
			}
		}
		// Carried curvature (gen 1) reads the previous window's pooled
		// statistics snapshots, complete before this window began: no
		// in-window data dependency, schedulable from the first bubble.
		curvIDs[[3]int{it.gen, it.stage, it.factor}] = append(curvIDs[[3]int{it.gen, it.stage, it.factor}], op.ID)
		stageCurvIDs[[2]int{it.gen, it.stage}] = append(stageCurvIDs[[2]int{it.gen, it.stage}], op.ID)
	}
	for _, it := range items {
		if it.kind != pipeline.SyncCurvature {
			continue
		}
		op := newOp(it)
		op.Deps = append(op.Deps, stageCurvIDs[[2]int{it.gen, it.stage}]...)
		syncIDs[[2]int{it.gen, it.stage}] = append(syncIDs[[2]int{it.gen, it.stage}], op.ID)
	}
	// Carried inversions first, deepest generation leading: shallower
	// inversions of a layer pair take cross-generation edges on every
	// deeper one (per-layer EMA fold order: an older generation folds and
	// swaps before a newer one folds on top — §3.1's freshest-completed
	// rule stays monotone in generations).
	maxGen := 0
	for _, it := range items {
		if it.gen > maxGen {
			maxGen = it.gen
		}
	}
	for gen := maxGen; gen >= 0; gen-- {
		for _, it := range items {
			if it.kind != pipeline.Inversion || it.gen != gen {
				continue
			}
			op := newOp(it)
			op.Deps = append(op.Deps, curvIDs[[3]int{gen, it.stage, it.factor}]...)
			op.Deps = append(op.Deps, curvIDs[[3]int{gen, it.stage, pairFactor(it.factor)}]...)
			op.Deps = append(op.Deps, syncIDs[[2]int{gen, it.stage}]...)
			for g2 := gen + 1; g2 <= maxGen; g2++ {
				for _, f := range []int{it.factor, pairFactor(it.factor)} {
					for _, prev := range invGenOps[[3]int{g2, it.stage, f}] {
						op.Deps = append(op.Deps, prev.ID)
					}
				}
			}
			op.Deps = pipeline.Dedup(op.Deps)
			invOps[op.Stage] = append(invOps[op.Stage], op)
			invGenOps[[3]int{gen, it.stage, it.factor}] = append(invGenOps[[3]int{gen, it.stage, it.factor}], op)
		}
	}
	// Each step's Precondition uses the freshest inverses completed by that
	// step: it depends on the stage's inversions packed into steps <= its
	// own. The last step depends on all of them (wstep is clamped to the
	// round), closing the refresh within the round.
	for _, op := range s.Ops {
		if op.Kind == pipeline.Precondition {
			for _, inv := range invOps[op.Stage] {
				if inv.Step <= op.Step {
					op.Deps = append(op.Deps, inv.ID)
				}
			}
		}
	}

	assembleExecOrders(s, tl, items, itemOp)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: executable form invalid: %w", err)
	}
	return s, nil
}

// pairFactor returns the other Kronecker factor of the same layer
// (A at 2l, B at 2l+1).
func pairFactor(f int) int { return f ^ 1 }

// assignWindowSteps maps every packed work item to the step of the refresh
// window it executes in (workItem.wstep): the step era its placed start
// falls into *on its own device*, where the era boundary of step j is the
// start of the device's earliest step-j tail op (sync-grad / precondition /
// opt-step) in the base timeline — items at or past a boundary belong to
// the next step's bubbles. Unplaced items go to the last step. Two
// monotonic clamps keep the assignment consistent with the dependency
// edges across devices (a dependent op can never be assigned an earlier
// step than its dependencies, which is what makes the per-step precondition
// edges acyclic): sync-curvature is clamped to its stage's curvature,
// inversion to its factor pair's curvature and its stage's syncs.
func assignWindowSteps(items []*workItem, base *pipeline.Timeline, cfg Config) {
	if cfg.FrontLoadRefresh {
		// Skip-cadence placement: the whole refresh belongs to the window's
		// first step (ordered ahead of its tail), steps 1..K-1 run stale.
		for _, it := range items {
			it.wstep = 0
		}
		return
	}
	k := cfg.RefreshSteps
	last := k - 1
	// tailStart[d][j]: start of device d's earliest step-j tail op.
	const never = hardware.Microseconds(1) << 62
	tailStart := make([][]hardware.Microseconds, base.Devices)
	for d := range tailStart {
		tailStart[d] = make([]hardware.Microseconds, k)
		for j := range tailStart[d] {
			tailStart[d][j] = never
		}
		for _, e := range base.Events[d] {
			if j := e.Op.Step; e.Op.Kind.IsTail() && j >= 0 && j < k && e.Start < tailStart[d][j] {
				tailStart[d][j] = e.Start
			}
		}
	}
	eraOf := func(it *workItem) int {
		if !it.placed {
			return last
		}
		era := 0
		for j := 0; j < last; j++ {
			if it.start() >= tailStart[it.device][j] {
				era = j + 1
			}
		}
		return era
	}
	// The clamp maps are keyed by generation: dependency edges only bind
	// same-generation ops, except the cross-generation fold-order edge from
	// a layer's carried inversions to the window's own — clamped last.
	curvStep := make(map[[3]int]int) // (gen, stage, factor) -> max curvature wstep
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		it.wstep = eraOf(it)
		key := [3]int{it.gen, it.stage, it.factor}
		if it.wstep > curvStep[key] {
			curvStep[key] = it.wstep
		}
	}
	stageCurvStep := make(map[[2]int]int) // (gen, stage)
	for key, w := range curvStep {
		skey := [2]int{key[0], key[1]}
		if w > stageCurvStep[skey] {
			stageCurvStep[skey] = w
		}
	}
	syncStep := make(map[[2]int]int) // (gen, stage) -> max sync wstep
	for _, it := range items {
		if it.kind != pipeline.SyncCurvature {
			continue
		}
		it.wstep = eraOf(it)
		if w := stageCurvStep[[2]int{it.gen, it.stage}]; w > it.wstep {
			it.wstep = w
		}
		if it.wstep > syncStep[[2]int{it.gen, it.stage}] {
			syncStep[[2]int{it.gen, it.stage}] = it.wstep
		}
	}
	maxGen := 0
	for _, it := range items {
		if it.gen > maxGen {
			maxGen = it.gen
		}
	}
	invStep := make(map[[3]int]int) // (gen, stage, factor) -> max inversion wstep
	for gen := maxGen; gen >= 0; gen-- {
		for _, it := range items {
			if it.kind != pipeline.Inversion || it.gen != gen {
				continue
			}
			it.wstep = eraOf(it)
			for _, f := range []int{it.factor, pairFactor(it.factor)} {
				if w := curvStep[[3]int{gen, it.stage, f}]; w > it.wstep {
					it.wstep = w
				}
				// Fold order: a generation's inversion of a layer runs after
				// the layer's deeper-lagged (older) inversions.
				for g2 := gen + 1; g2 <= maxGen; g2++ {
					if w := invStep[[3]int{g2, it.stage, f}]; w > it.wstep {
						it.wstep = w
					}
				}
			}
			if w := syncStep[[2]int{gen, it.stage}]; w > it.wstep {
				it.wstep = w
			}
			key := [3]int{gen, it.stage, it.factor}
			if it.wstep > invStep[key] {
				invStep[key] = it.wstep
			}
		}
	}
}

// assembleExecOrders builds each device's execution order, step by step of
// the round: the step's base forward/backward ops merged with the K-FAC
// items the packer assigned to that step by start time, followed by the
// step's tail (sync-grad, precondition, optimizer). K-FAC work that did not
// pack goes right before the last step's tail, preserving every dependency
// edge — and items assigned to step j always order before step j's tail,
// which is exactly what the per-step precondition edges assume.
func assembleExecOrders(s *pipeline.Schedule, tl *pipeline.Timeline, items []*workItem, itemOp map[*workItem]*pipeline.Op) {
	type entry struct {
		start hardware.Microseconds
		seq   int
		opID  int
	}
	const never = hardware.Microseconds(1) << 62
	k := s.Steps
	for d := 0; d < s.Devices; d++ {
		heads := make([][]entry, k)
		tails := make([][]int, k)
		seq := 0
		clamp := func(j int) int {
			if j < 0 {
				return 0
			}
			if j >= k {
				return k - 1
			}
			return j
		}
		for _, e := range tl.Events[d] {
			j := clamp(e.Op.Step)
			if e.Op.Kind.IsTail() {
				tails[j] = append(tails[j], e.Op.ID)
				continue
			}
			heads[j] = append(heads[j], entry{start: e.Start, seq: seq, opID: e.Op.ID})
			seq++
		}
		// Carried items take earlier sequence numbers than the window's
		// own, deepest generation first: among deferred items sharing the
		// end-of-round position, a layer's deeper-lagged inversion must
		// order before the shallower inversion that depends on it.
		maxGen := 0
		for _, it := range items {
			if it.gen > maxGen {
				maxGen = it.gen
			}
		}
		for gen := maxGen; gen >= 0; gen-- {
			for _, it := range items {
				if it.device != d || it.gen != gen {
					continue
				}
				op := itemOp[it]
				if op == nil {
					continue
				}
				start := never
				if it.placed {
					start = it.start()
				}
				j := clamp(it.wstep)
				heads[j] = append(heads[j], entry{start: start, seq: seq, opID: op.ID})
				seq++
			}
		}
		for j := 0; j < k; j++ {
			h := heads[j]
			sort.SliceStable(h, func(a, b int) bool {
				if h[a].start != h[b].start {
					return h[a].start < h[b].start
				}
				return h[a].seq < h[b].seq
			})
			for _, en := range h {
				s.Order[d] = append(s.Order[d], en.opID)
			}
			s.Order[d] = append(s.Order[d], tails[j]...)
		}
	}
}
