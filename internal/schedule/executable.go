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
// Dependency edges are the package doc's rules. Those among refresh work
// are each work item's inputs (workItem.deps and after), which the packing
// pass gates placement on and the window steps follow too — so the packed
// per-device positions and steps can never contradict the edges:
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
//   - An inversion placed in step j >= 1 on a device other than the one
//     that preconditions its stage at step j-1 depends on that
//     precondition: the engine lets a device past its step-(j-1) optimizer
//     op run refresh work while the step's commit is pending, and the
//     inversion must not swap an inverse the precondition still reads.
//   - A factor with an inversion chain (StageCosts.InversionChains) is
//     inverted by one op per chain step (Op.Chain), each depending on the
//     one before it; the first takes the inversion's edges above, the last
//     is the one preconditions and the precondition edge bind.
//
// Work that does not fit the round's bubbles is appended at the end of the
// last step's pre-tail order (execution can always complete; only the
// timing degrades), and inversion work whose curvature spilled is deferred
// the same way. Every device appends it in one global dependency rank
// (spillRank): curvature, sync-curvature, the carried generation's
// inversions (a chain's steps in sequence), the window's own inversions —
// so cross-device waits can never cycle, and no owner inverts while a peer
// owner waits on curvature it has yet to run.
//
// With Config.Overlap the spill is not serialized but *carried*: the
// schedule describes the steady state of overlapping windows (packWindow),
// in which the refresh work that cannot fit its own window executes in
// NEXT window's early bubbles as generation-lagged ops (Op.Generation = 1:
// the op runs one window after its statistics were collected) operating on
// the previous window's statistics pool. Edges only bind ops of one
// generation, except that the window's own inversions of a layer
// additionally depend on that layer's carried inversions, keeping the
// per-layer EMA fold order sequential across generations. A serialized
// round is the same steady state with nothing carried.
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

	// Create the K-FAC ops, each after the ops of its inputs: curvature,
	// then syncs, then inversions, the carried generation's first. Edges
	// only bind ops of the same generation (a carried op's same-generation
	// peers that already ran did so in the previous window), plus the
	// cross-generation fold-order edges from a layer pair's carried
	// inversions to the window's own (per-layer EMA fold order: the older
	// generation folds and swaps before the newer one folds on top — §3.1's
	// freshest-completed rule stays monotone in generations). An op runs in
	// the later of its own era and its inputs' steps, so a dependent op is
	// never assigned an earlier step than its dependencies — which is what
	// makes the per-step precondition edges acyclic.
	era := windowEras(tl, k)
	itemOp := make(map[*workItem]*pipeline.Op, len(items))
	invOps := make(map[int][]*pipeline.Op) // stage -> inversion ops that swap, both generations
	newOp := func(it *workItem) *pipeline.Op {
		op := &pipeline.Op{
			ID: len(s.Ops), Kind: it.kind, Device: it.device, Stage: it.stage,
			Replica: it.replica, MicroBatch: it.micro, Factor: it.factor, Step: era(it),
			Generation: it.gen, Duration: max(it.duration, 1), Chain: it.chain,
		}
		it.inputs(func(in *workItem) {
			dep := itemOp[in]
			op.Deps = append(op.Deps, dep.ID)
			op.Step = max(op.Step, dep.Step)
		})
		s.Ops = append(s.Ops, op)
		itemOp[it] = op
		// The ops that swap an inverse in are what preconditions wait for.
		if it.swaps {
			invOps[op.Stage] = append(invOps[op.Stage], op)
		}
		return op
	}
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		op := newOp(it)
		// Carried curvature (gen 1) reads the previous window's pooled
		// statistics snapshots, complete before this window began: no
		// in-window data dependency, schedulable from the first bubble.
		if it.gen > 0 {
			continue
		}
		depKind := pipeline.Forward
		if factorKindOf(it.factor) == FactorB {
			depKind = pipeline.Backward
		}
		id, ok := baseID[[4]int{int(depKind), it.stage, it.micro, it.device}]
		if !ok {
			return nil, fmt.Errorf("schedule: no %v op for stage %d micro %d device %d",
				depKind, it.stage, it.micro, it.device)
		}
		op.Deps = append(op.Deps, id)
	}
	for _, it := range items {
		if it.kind == pipeline.SyncCurvature {
			newOp(it)
		}
	}
	for gen := 1; gen >= 0; gen-- {
		for _, it := range items {
			if it.kind == pipeline.Inversion && it.gen == gen {
				newOp(it)
			}
		}
	}
	// Each step's Precondition uses the freshest inverses completed by that
	// step: it depends on the stage's inversions packed into steps <= its
	// own. The last step depends on all of them (an era is within the
	// round), closing the refresh within the round.
	precond := make(map[[2]int]*pipeline.Op) // (stage, step) -> the precondition applying the stage's inverses
	for _, op := range s.Ops {
		if op.Kind == pipeline.Precondition {
			for _, inv := range invOps[op.Stage] {
				if inv.Step <= op.Step {
					op.Deps = append(op.Deps, inv.ID)
				}
			}
			if op.Replica == 0 {
				precond[[2]int{op.Stage, op.Step}] = op
			}
		}
	}
	// A step's commit holds base work only: a device past its step-j
	// optimizer op keeps running its next refresh ops while the commit is
	// pending, so an inversion that swaps in step j+1 on a device other than
	// the one preconditioning its stage at step j (Chimera's second owner, a
	// W > 1 replica or inversion shard) waits for that precondition — it
	// must not replace an inverse the precondition still reads.
	for _, ops := range invOps {
		for _, inv := range ops {
			if p := precond[[2]int{inv.Stage, inv.Step - 1}]; p != nil && p.Device != inv.Device {
				inv.Deps = append(inv.Deps, p.ID)
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

// windowEras returns the step of the refresh window a packed work item's
// era is: the step its placed start falls into *on its own device*, where
// the era boundary of step j is the start of the device's earliest step-j
// tail op (sync-grad / precondition / opt-step) in the base timeline —
// items at or past a boundary belong to the next step's bubbles. Unplaced
// items go to the last step. An op's step is the later of its era and its
// inputs' steps (Executable).
func windowEras(base *pipeline.Timeline, k int) func(*workItem) int {
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
	return func(it *workItem) int {
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
}

// spillRank is the dependency rank the refresh work that found no bubble
// executes in: curvature, then sync-curvature, then the carried
// generation's inversions, then the window's own — each kind's carried
// generation ahead of the window's own. Every dependency edge among such
// work points to a lower rank, or within a rank to an earlier item of the
// same device (a chain's previous step), so device orders that all follow
// the rank cannot wait on one another in a cycle — and an owner never runs
// its inversions while a peer owner waits on its curvature.
func spillRank(it *workItem) int {
	var kind int
	switch it.kind {
	case pipeline.SyncCurvature:
		kind = 1
	case pipeline.Inversion:
		kind = 2
	}
	return 2*kind + 1 - it.gen
}

// assembleExecOrders builds each device's execution order, step by step of
// the round: the step's base forward/backward ops merged with the K-FAC
// items the packer assigned to that step by start time, followed by the
// step's tail (sync-grad, precondition, optimizer). K-FAC work that did not
// pack goes right before the last step's tail in spillRank order, item
// order within a rank, preserving every dependency edge — and items
// assigned to step j always order before step j's tail, which is exactly
// what the per-step precondition edges assume.
func assembleExecOrders(s *pipeline.Schedule, tl *pipeline.Timeline, items []*workItem, itemOp map[*workItem]*pipeline.Op) {
	type entry struct {
		start hardware.Microseconds
		rank  int // spillRank of unplaced items; 0 for the rest
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
		for _, it := range items {
			if it.device != d {
				continue
			}
			op := itemOp[it]
			start, rank := never, spillRank(it)
			if it.placed {
				start, rank = it.start(), 0
			}
			heads[op.Step] = append(heads[op.Step], entry{start: start, rank: rank, seq: seq, opID: op.ID})
			seq++
		}
		for j := 0; j < k; j++ {
			h := heads[j]
			sort.SliceStable(h, func(a, b int) bool {
				if h[a].start != h[b].start {
					return h[a].start < h[b].start
				}
				if h[a].rank != h[b].rank {
					return h[a].rank < h[b].rank
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
