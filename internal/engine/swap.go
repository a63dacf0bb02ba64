package engine

import (
	"fmt"

	"repro/internal/pipeline"
)

// SwapConfig selects the schedule shape a round-boundary hot-swap
// (Reconfigure) moves the engine to. It covers exactly the dimensions of
// the auto-tuner's candidate space — the knobs that change how work packs
// into bubbles without changing what the work computes. Zero-valued fields
// keep the current setting where a zero is not meaningful (Method "",
// RefreshSteps 0, RefreshEvery 0); the booleans are absolute.
type SwapConfig struct {
	// Method is the schedule family to swap to ("" keeps the current one).
	// The stage count, micro-batch count and replica width are fixed at
	// construction — a chimera target is only valid when the current
	// stages/micro-batches satisfy its evenness constraints.
	Method string
	// RefreshSteps is the new round length K (0 keeps the current one;
	// AdaptiveRefreshSteps is not valid here — the tuner measures, it does
	// not re-derive from modeled costs). Callers must re-query RoundSteps
	// after a successful swap: TrainRound consumes K batches.
	RefreshSteps int
	// Overlap and InversionParallel set the corresponding Config fields
	// absolutely (swapping TO overlap and AWAY from it are both swaps).
	Overlap           bool
	InversionParallel bool
	// CarryDepth is the overlap carry depth (0 = the schedule default of
	// 2). Only meaningful with Overlap.
	CarryDepth int
	// RefreshEvery is the new refresh cadence in steps. 0 keeps the
	// current cadence, rounded UP to the nearest multiple of the new K
	// when the round length changes (a refresh window cannot straddle a
	// round boundary).
	RefreshEvery int
	// Costs, when non-nil, replaces the engine's packing cost model — the
	// static execCosts shape, or an earlier swap's — with a fitted one for
	// this rebuild and every later one. Execution follows the packed order
	// only, so this never changes the math.
	Costs *pipeline.StageCosts
}

// Reconfigure hot-swaps the engine's executable schedule at a round
// boundary: call it between TrainRound calls (rounds are atomic — there are
// no live device goroutines between rounds, so the swap needs no
// synchronization). Parameters, gradient accumulators, attached optimizer
// state, the per-stage K-FAC preconditioners and the step/round counters
// all survive the swap — it is as safe as a restart without the teardown.
// A swap to chimera builds the up-pipeline module sets the first time (they
// alias the replicas' weights, see buildUpSets) and a swap away keeps them,
// idle, for the next one.
//
// A swap to the *identical* configuration is a no-op by construction (the
// rebuilt schedule is deterministic and equal, and no refresh state is
// touched): training after it is bit-identical to never swapping. A swap
// that changes the schedule shape discards in-flight refresh state — the
// statistics pools and any pending carried generations belong to the old
// schedule's carry structure — and forces a full refresh on the next round,
// so the engine never serves factors collected under one schedule through
// the carry discipline of another.
//
// On error the engine is unchanged (the old schedule keeps running).
func (e *Engine) Reconfigure(sc SwapConfig) error {
	nc := e.cfg
	if sc.Method != "" {
		nc.Method = sc.Method
	}
	k := e.roundLen
	if sc.RefreshSteps != 0 {
		if sc.RefreshSteps < 0 {
			return fmt.Errorf("engine: Reconfigure RefreshSteps must be positive, got %d", sc.RefreshSteps)
		}
		k = sc.RefreshSteps
	}
	if sc.RefreshEvery < 0 {
		return fmt.Errorf("engine: Reconfigure RefreshEvery must be non-negative, got %d", sc.RefreshEvery)
	}
	nc.RefreshSteps = k
	nc.OverlapRounds = sc.Overlap
	nc.InversionParallel = sc.InversionParallel
	nc.CarryDepth = 0
	if sc.Overlap {
		// Overlap spreads the refresh by construction; a front-loaded
		// engine swapping to overlap drops the front-load pinning.
		nc.FrontLoadRefresh = false
		nc.CarryDepth = sc.CarryDepth
	} else if sc.CarryDepth > 1 {
		return fmt.Errorf("engine: Reconfigure CarryDepth %d needs Overlap", sc.CarryDepth)
	}
	nc, err := nc.normalize()
	if err != nil {
		return err
	}
	re := e.refreshEvery
	if sc.RefreshEvery > 0 {
		re = sc.RefreshEvery
	}
	if e.kfacPre != nil {
		if re <= 0 {
			re = k
		}
		if re%k != 0 {
			re = (re/k + 1) * k
		}
	}
	same := nc.Method == e.cfg.Method &&
		k == e.roundLen &&
		nc.OverlapRounds == e.cfg.OverlapRounds &&
		nc.InversionParallel == e.cfg.InversionParallel &&
		nc.FrontLoadRefresh == e.cfg.FrontLoadRefresh &&
		effectiveCarryDepth(nc) == effectiveCarryDepth(e.cfg) &&
		re == e.refreshEvery &&
		(sc.Costs == nil || (e.costModel != nil && sc.Costs.Equal(*e.costModel)))

	up, err := e.missingSets(nc.Method)
	if err != nil {
		return fmt.Errorf("engine: Reconfigure: %w", err)
	}
	oldCfg, oldLen, oldCosts, oldSets := e.cfg, e.roundLen, e.costModel, e.sets
	e.sets = append(e.sets, up...) // before the rebuild, which sizes every set's activation slots
	e.cfg = nc
	e.roundLen = k
	if sc.Costs != nil {
		c := *sc.Costs
		e.costModel = &c
	}
	if err := e.rebuildSchedule(); err != nil {
		e.cfg, e.roundLen, e.costModel, e.sets = oldCfg, oldLen, oldCosts, oldSets
		return fmt.Errorf("engine: Reconfigure: %w", err)
	}
	if e.kfacPre == nil {
		return nil
	}
	e.refreshEvery = re
	e.maxCarryGen = maxScheduleGen(e.sched)
	if same {
		// Identical shape: the rebuilt schedule is equal op for op, and the
		// refresh pipeline (pools, carry queue, cadence counters) continues
		// untouched — the bit-identity guarantee of a no-op swap.
		return nil
	}
	e.dropGenerations()
	e.ensureGenPools()
	e.refreshPending = true
	return nil
}

// effectiveCarryDepth resolves the CarryDepth default (0 means 2 under
// overlap, no carry otherwise) for shape comparison.
func effectiveCarryDepth(c Config) int {
	if !c.OverlapRounds {
		return 0
	}
	if c.CarryDepth == 0 {
		return 2
	}
	return c.CarryDepth
}

// ModeledCosts returns the cost shape the engine currently packs schedules
// with: the fitted model when one is installed, the static execCosts shape
// otherwise.
func (e *Engine) ModeledCosts() pipeline.StageCosts { return e.execCosts() }

// Overlapped reports whether the engine runs overlapped refresh rounds.
func (e *Engine) Overlapped() bool { return e.cfg.OverlapRounds }

// InversionParallel reports whether inversion units shard across each
// stage's device group.
func (e *Engine) InversionParallel() bool { return e.cfg.InversionParallel }

// MicroBatches returns the number of micro-batches per replica per step.
func (e *Engine) MicroBatches() int { return e.cfg.MicroBatches }

// RefreshEvery returns the refresh cadence in steps (0 before EnableKFAC).
func (e *Engine) RefreshEvery() int { return e.refreshEvery }

// CarryDepth returns the effective overlap carry depth (0 when not
// overlapped, the resolved default of 2 when overlapped without an explicit
// depth).
func (e *Engine) CarryDepth() int { return effectiveCarryDepth(e.cfg) }
