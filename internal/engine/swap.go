package engine

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// Shape returns the schedule shape the engine runs, as a point of the
// auto-tuner's candidate space: family, round length K, overlapped rounds
// and inversion sharding — what Reconfigure swaps.
func (e *Engine) Shape() schedule.Candidate {
	return schedule.Candidate{
		Method:            e.cfg.Method,
		RefreshSteps:      e.roundLen,
		Overlap:           e.cfg.OverlapRounds,
		InversionParallel: e.cfg.InversionParallel,
	}
}

// Reconfigure hot-swaps the engine's executable schedule at a round
// boundary to shape: call it between TrainRound calls (rounds are atomic —
// there are no live device goroutines between rounds, so the swap needs no
// synchronization). Every field of shape is absolute. The stage count,
// micro-batch count and replica width are fixed at construction, so a
// chimera shape is only valid when they satisfy its evenness constraints;
// K must be a round length, not AdaptiveRefreshSteps (the tuner measures, it
// does not re-derive from modeled costs), and callers must re-query
// RoundSteps after a successful swap: TrainRound consumes K batches. The
// refresh cadence is kept, rounded UP to a multiple of the new K when the
// round length changes (a refresh window cannot straddle a round boundary).
//
// costs, when non-nil, replaces the engine's packing cost model — the costs
// priced from the model's shapes, or an earlier swap's — with a fitted one
// for this rebuild and every later one; nil keeps the current one.
// Execution follows the packed order only, so this never changes the math
// of a fixed op list.
//
// Parameters, gradient accumulators, attached optimizer state, the
// per-stage K-FAC preconditioners and the step/round counters all survive
// the swap — it is as safe as a restart without the teardown. A swap to
// chimera builds the up-pipeline module sets the first time (they alias the
// primary's weights, see cloneSet) and a swap away keeps them, idle, for
// the next one.
//
// A swap to the *identical* configuration — Reconfigure(e.Shape(), nil) —
// is a no-op by construction (the rebuilt schedule is deterministic and
// equal, and no refresh state is touched): training after it is
// bit-identical to never swapping. A swap that changes the schedule shape
// discards in-flight refresh state — the statistics pools and a pending
// carried generation belong to the old schedule's carry structure — and
// forces a full refresh on the next round, so the engine never serves
// factors collected under one schedule through the carry discipline of
// another.
//
// On error the engine is unchanged (the old schedule keeps running).
func (e *Engine) Reconfigure(shape schedule.Candidate, costs *pipeline.StageCosts) error {
	if shape.RefreshSteps < 0 {
		return fmt.Errorf("engine: Reconfigure RefreshSteps must be positive, got %d", shape.RefreshSteps)
	}
	k := max(shape.RefreshSteps, 1)
	nc := e.cfg
	nc.Method = shape.Method
	nc.RefreshSteps = k
	nc.OverlapRounds = shape.Overlap
	nc.InversionParallel = shape.InversionParallel
	nc, err := nc.normalize()
	if err != nil {
		return err
	}
	re := e.refreshEvery
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
		re == e.refreshEvery &&
		(costs == nil || (e.costModel != nil && costs.Equal(*e.costModel)))

	up, err := e.missingSets(nc.Method)
	if err != nil {
		return fmt.Errorf("engine: Reconfigure: %w", err)
	}
	oldCfg, oldLen, oldCosts, oldSets := e.cfg, e.roundLen, e.costModel, e.sets
	e.sets = append(e.sets, up...) // before the rebuild, which sizes every set's activation slots
	e.cfg = nc
	e.roundLen = k
	if costs != nil {
		c := *costs
		e.costModel = &c
	}
	if err := e.rebuildSchedule(); err != nil {
		e.cfg, e.roundLen, e.costModel, e.sets = oldCfg, oldLen, oldCosts, oldSets
		return fmt.Errorf("engine: Reconfigure: %w", err)
	}
	// The swap resolves the round length: an adaptive one is not re-derived.
	e.adaptPending = false
	if e.kfacPre == nil {
		return nil
	}
	e.refreshEvery = re
	if same {
		// Identical shape: the rebuilt schedule is equal op for op, and the
		// refresh pipeline (pools, carried generation, cadence counters)
		// continues untouched — the bit-identity guarantee of a no-op swap.
		return nil
	}
	e.dropGenerations(true)
	return nil
}

// ModeledCosts returns the cost shape the engine currently packs schedules
// with: the fitted model when one is installed, the costs priced from the
// model's shapes otherwise.
func (e *Engine) ModeledCosts() pipeline.StageCosts { return e.packingCosts() }

// MicroBatches returns the number of micro-batches per replica per step.
func (e *Engine) MicroBatches() int { return e.cfg.MicroBatches }

// RefreshEvery returns the refresh cadence in steps (0 before EnableKFAC).
func (e *Engine) RefreshEvery() int { return e.refreshEvery }

// CarryDepth returns the number of rounds one refresh spans
// (schedule.Config.CarryDepth): 2 when overlapped — carried work lags one
// round — and 0 otherwise.
func (e *Engine) CarryDepth() int {
	if e.cfg.OverlapRounds {
		return 2
	}
	return 0
}
