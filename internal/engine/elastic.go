package engine

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/kfac"
	"repro/internal/transport"
)

// Elastic membership: surviving a rank failure and rejoining after one.
//
// The engine's determinism contract makes membership changes cheap: rank g
// of a W_g-rank group owns global micro-batches [g*R*M, (g+1)*R*M) of each
// step, and TrainRound re-derives that slice from the group's Size/Rank on
// every call. Swapping in a smaller (or restored) group via Reconnect
// therefore re-shards the global batch automatically — no schedule surgery,
// no state migration. Two flows build on it:
//
//   - Shrink (rank failure): every survivor sees the same attributed
//     transport.RankFailure, closes the dead group, dials a replacement
//     (transport.Reform), calls Reconnect(g, false), and rewinds to its own
//     round checkpoint. No cross-rank state transfer is needed because the
//     per-step loss collective is a barrier: every rank commits the same
//     steps, so every rank's checkpoint holds the same (bit-identical)
//     state. Training continues at reduced width, bit-identical to a fresh
//     run at that width restored from the same checkpoint.
//
//   - Rejoin (width restore): a restarted rank dials the full-width ring
//     together with the survivors, then calls Reconnect(g, true): the
//     resync re-broadcasts rank 0's parameters, optimizer state, and step
//     counters over the ordinary Broadcast collective, and resets K-FAC
//     state symmetrically on every rank so the group's preconditioners
//     evolve in lockstep from the next refresh.

// Reconnect swaps the engine onto a new transport group after a membership
// change — a survivors-only group from transport.Reform (shrink) or a
// restored full-width group (rejoin). The engine re-derives its global
// batch shard from the new group's Size/Rank, re-prices the schedule's
// collective costs for the new width, and advances its membership view
// (stamped on subsequent executed timelines). With resync, rank 0's
// parameters, optimizer state, and counters are re-broadcast so a fresh
// process joins mid-training — every rank of the new group must call
// Reconnect(..., true) together, since the resync is a collective.
//
// The rank-targeted fault plan is re-projected onto the new rank, so
// rank-selector faults keep addressing ORIGINAL ranks only if the caller
// re-derives the plan; by default the engine re-projects the configured
// plan onto the new group rank (matching how the CLI numbers ranks after a
// reform).
func (e *Engine) Reconnect(g transport.Group, resync bool) error {
	if g == nil {
		return fmt.Errorf("engine: Reconnect needs a transport group (use transport.Loopback{} for W=1)")
	}
	e.cfg.Transport = g
	e.group = g
	e.multiRank = g.Size() > 1
	// Keep the engine's membership view aligned with the transport's when
	// the group carries one (a reformed Ring does); otherwise just count.
	if v, ok := g.(interface{ View() int64 }); ok && int(v.View()) > e.memberView {
		e.memberView = int(v.View())
	} else {
		e.memberView++
	}
	e.memberChanged = true
	e.inj = faults.NewInjector(e.cfg.FaultPlan.ForRank(g.Rank()))
	// Collective cost estimates depend on the group width; re-pricing and
	// re-deriving the schedule keeps the packer's layout honest at the new
	// size.
	if err := e.price(e.microSeqs); err != nil {
		return err
	}
	if err := e.rebuildSchedule(); err != nil {
		return fmt.Errorf("engine: rebuilding schedule after membership change: %w", err)
	}
	if resync && e.multiRank {
		return e.resyncFrom(0)
	}
	return nil
}

// RegroupRestore rewinds the survivors of a shrink to a common training
// state. Committing a step is not atomic across ranks: the per-step loss
// collective is a barrier, but a rank failure can strike while one survivor
// has already completed it (and committed the step) and another was still
// writing its final frames (and aborted the round). The survivors'
// checkpoints then name different steps, and restoring each rank to its own
// would silently fork the group's state. The survivors therefore gather
// every rank's checkpointed step over the new group, agree on the MAXIMUM —
// a committed step's state is causally complete on the rank that committed
// it, because the reduction it consumed already contained every peer's
// contribution — and the lowest-ranked owner of that maximum broadcasts its
// restored state to the ranks that were behind. In the common case all
// candidates are equal and each rank restores purely locally, bit-identical
// to its own checkpoint; only a divergent commit pays the broadcast (and,
// under K-FAC, a symmetric preconditioner reset per the §3.1 staleness
// discipline).
//
// Returns the agreed step index training resumes from. Call it after
// Reconnect on every survivor together — the reconciliation is a
// collective.
func (e *Engine) RegroupRestore() (int, error) {
	if !e.multiRank {
		return e.RestoreCheckpoint()
	}
	cand := 0
	if e.ckpt.valid {
		cand = e.ckpt.stepIndex
	}
	// A one-hot sum is a gather under the ring's deterministic fold.
	w := e.group.Size()
	vec := make([]float64, w)
	part := make([]float64, w)
	part[e.group.Rank()] = float64(cand)
	if _, err := e.group.AllReduce("regroup/step", vec, nil, [][]float64{part}); err != nil {
		return 0, fmt.Errorf("engine: regroup step reconciliation: %w", err)
	}
	agreed, owner, equal := 0, 0, true
	for r := 0; r < w; r++ {
		if int(vec[r]) > agreed {
			agreed, owner = int(vec[r]), r
		}
	}
	for r := 0; r < w; r++ {
		if int(vec[r]) != agreed {
			equal = false
		}
	}
	if cand == agreed && e.ckpt.valid {
		if _, err := e.RestoreCheckpoint(); err != nil {
			return 0, err
		}
	}
	if !equal {
		if err := e.resyncFrom(owner); err != nil {
			return 0, err
		}
	}
	return e.stepIndex, nil
}

// resyncFrom aligns the group on the root rank's training state: the shape
// handshake and parameter broadcast of initial construction, followed by
// the optimizer's flattened state and the engine's step counters. K-FAC
// preconditioner state is NOT broadcast — factor EMAs are large and a
// rejoiner's are empty — so instead every rank resets its preconditioners
// symmetrically and forces a refresh on the next round: the group
// re-derives identical factors together, which keeps ranks in lockstep at
// the cost of one curvature rebuild.
func (e *Engine) resyncFrom(root int) error {
	if err := e.syncParamsFrom(root); err != nil {
		return err
	}
	if e.optState != nil {
		buf := make([]float64, e.optState.StateLen())
		if e.group.Rank() == root {
			e.optState.SaveState(buf)
		}
		if _, err := e.group.Broadcast("resync/opt", root, buf); err != nil {
			return fmt.Errorf("engine: optimizer state resync: %w", err)
		}
		if e.group.Rank() != root {
			e.optState.LoadState(buf)
		}
	}
	ctr := []float64{float64(e.stepIndex), float64(e.roundIndex), float64(e.kfacGen)}
	if _, err := e.group.Broadcast("resync/ctr", root, ctr); err != nil {
		return fmt.Errorf("engine: step counter resync: %w", err)
	}
	e.stepIndex, e.roundIndex, e.kfacGen = int(ctr[0]), int(ctr[1]), int(ctr[2])
	if e.kfacPre != nil {
		for s, st := range e.sets[0].stages {
			e.kfacPre[s] = kfac.NewPreconditioner(st.layers, e.kfacOpts)
		}
		e.dropGenerations(true)
	}
	// The pre-resync round checkpoint described a state (and possibly a
	// width) that no longer exists; the next TrainRound saves a fresh one.
	e.ckpt.valid = false
	return nil
}

// StepsDone returns the number of committed training steps — what a
// supervisor needs to know where a rejoined member resumes.
func (e *Engine) StepsDone() int { return e.stepIndex }

// MemberView returns the engine's current elastic membership view (0 until
// the first Reconnect).
func (e *Engine) MemberView() int { return e.memberView }

// SetKillHook registers the action a Kill fault outcome triggers on this
// rank (before the op's failure aborts the round): the CLI exits the
// process, tests sever the transport so peers observe a real rank death.
func (e *Engine) SetKillHook(h func()) { e.killHook = h }
