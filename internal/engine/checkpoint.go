package engine

import (
	"fmt"

	"repro/internal/kfac"
	"repro/internal/tensor"
)

// Round checkpoint/replay: with Config.Checkpoint enabled, TrainRound
// snapshots everything a round can mutate that a later round reads — the
// primary's parameter values, the attached optimizer's internal state, the
// per-stage K-FAC state, and the engine's refresh phase — into retained
// buffers at round start (equivalently: at the previous round's commit,
// since nothing changes between rounds). After an aborted round,
// RestoreCheckpoint rewinds to the snapshot; replaying the same batches
// then reproduces the fault-free run bit-identically, because every input
// to the round's math (parameters, optimizer momenta, K-FAC EMAs and
// inverses, step counters, refresh cadence) is restored exactly and the
// round's execution itself is deterministic. Gradient accumulators are
// not part of it: every step's fold overwrites them before anything reads
// them.
//
// All buffers are plain allocations reused across saves (tensor.Reuse,
// never the workspace pool), so steady-state checkpointing allocates
// nothing and is invisible to the pool-leak audit.

// OptimizerState is the optimizer-side contract of the round checkpoint:
// flattenable internal state (momenta, second moments, bias-correction
// counters) that can be saved and restored exactly. optim.SGD, optim.Adam
// and optim.LAMB all implement it (optim.Stateful).
type OptimizerState interface {
	// StateLen returns the flattened state length in float64 words.
	StateLen() int
	// SaveState copies the state into buf (len == StateLen()).
	SaveState(buf []float64)
	// LoadState restores the state from buf (len == StateLen()).
	LoadState(buf []float64)
}

// AttachOptimizerState registers the optimizer whose internal state the
// round checkpoint must cover. Required (alongside SetOptimizer) before
// TrainRound on engines with Config.Checkpoint: replaying a round without
// rewinding the optimizer's momenta and step counters would not be
// bit-identical.
func (e *Engine) AttachOptimizerState(s OptimizerState) { e.optState = s }

// roundCheckpoint is the retained snapshot (see the file comment).
type roundCheckpoint struct {
	valid          bool
	stepIndex      int
	roundIndex     int
	kfacGen        int
	refreshPending bool
	params         []*tensor.Matrix // primary parameter values
	opt            []float64        // flattened optimizer state
	kfacSnaps      []*kfac.Snapshot // per stage
}

// saveCheckpoint records the engine's committed state; buffers are reused
// from the previous save.
func (e *Engine) saveCheckpoint() {
	c := &e.ckpt
	ps := e.sets[0].params
	if len(c.params) != len(ps) {
		c.params = make([]*tensor.Matrix, len(ps))
	}
	for i, p := range ps {
		c.params[i] = tensor.Reuse(c.params[i], p.Value.Rows, p.Value.Cols)
		copy(c.params[i].Data, p.Value.Data)
	}
	if e.optState != nil {
		if len(c.opt) != e.optState.StateLen() {
			c.opt = make([]float64, e.optState.StateLen())
		}
		e.optState.SaveState(c.opt)
	}
	if e.kfacPre != nil {
		if len(c.kfacSnaps) != len(e.kfacPre) {
			c.kfacSnaps = make([]*kfac.Snapshot, len(e.kfacPre))
			for s := range c.kfacSnaps {
				c.kfacSnaps[s] = &kfac.Snapshot{}
			}
		}
		for s, pre := range e.kfacPre {
			c.kfacSnaps[s].Save(pre)
		}
	}
	c.stepIndex = e.stepIndex
	c.roundIndex = e.roundIndex
	c.kfacGen = e.kfacGen
	// A pending carried generation (overlapped rounds) is live pooled state
	// the checkpoint does not deep-copy; restoring forces a full refresh
	// instead, which re-derives everything the carried ops would have.
	c.refreshPending = e.refreshPending || e.carried != nil
	c.valid = true
}

// RestoreCheckpoint rewinds the engine to the last round checkpoint —
// parameters, optimizer state, K-FAC state, and the refresh phase — and
// returns the global step index to replay from. Call it after
// TrainRound returned an error on an engine with Config.Checkpoint;
// re-running TrainRound with the same batches then reproduces the
// fault-free round bit-identically (committed steps of the aborted round
// are rewound too: the checkpoint is the round's start).
func (e *Engine) RestoreCheckpoint() (int, error) {
	if !e.cfg.Checkpoint {
		return 0, fmt.Errorf("engine: RestoreCheckpoint needs Config.Checkpoint")
	}
	c := &e.ckpt
	if !c.valid {
		return 0, fmt.Errorf("engine: no round checkpoint saved yet (TrainRound saves one at every round start)")
	}
	for i, p := range e.sets[0].params {
		p.Value.CopyFrom(c.params[i])
	}
	if e.optState != nil {
		e.optState.LoadState(c.opt)
	}
	if e.kfacPre != nil {
		for s, pre := range e.kfacPre {
			if err := c.kfacSnaps[s].Restore(pre); err != nil {
				return 0, fmt.Errorf("engine: restoring K-FAC state of stage %d: %w", s, err)
			}
		}
	}
	e.stepIndex = c.stepIndex
	e.roundIndex = c.roundIndex
	e.kfacGen = c.kfacGen
	// Whatever the aborted round left in the generation pools is stale now;
	// the refresh phase is the checkpoint's, exactly.
	e.dropGenerations(false)
	e.refreshPending = c.refreshPending
	return e.stepIndex, nil
}
