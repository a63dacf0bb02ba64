package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// This file is the engine's fault-tolerance layer, active only when the
// round's runState.resilient flag is set (a fault plan, an op deadline, or a
// retry budget is configured — see Config.FaultPlan/OpTimeout/OpRetries).
// The default engine never enters any of these paths: the device loop
// branches straight to runState.exec, so fault tolerance costs the
// fault-free configuration nothing (bench-gated).
//
// The layer implements a degradation ladder grounded in the paper's §3.1
// staleness rule — stale inverses are by-design acceptable, so refresh work
// is the part of the schedule whose failure training can absorb:
//
//  1. transient side-path failures (curvature capture, inversion,
//     sync-curvature) retry with exponential backoff, OpRetries times;
//  2. past the retry budget the op *degrades*: its statistics generation is
//     marked failed, the round keeps serving the previous generation's
//     inverses (or runs unpreconditioned when none was ever delivered), and
//     the next round re-runs a full refresh;
//  3. base-path failures (forward, backward, collectives, optimizer) abort
//     the round with the root cause attributed — the case round
//     checkpoint/replay (checkpoint.go) recovers from.
//
// The side path is exactly the refresh work (pipeline.WorkKind.IsRefresh),
// whose absence the §3.1 staleness discipline absorbs.

// execResilient runs one op under the fault layer: watchdog-armed,
// injector-consulted, retried within the side-path budget, degraded past
// it. Base-path errors and round aborts propagate to the caller (the device
// loop), which aborts the round.
func (st *runState) execResilient(d int, op *pipeline.Op) error {
	e := st.e
	t0 := time.Since(st.start)
	retries := 0
	if op.Kind.IsRefresh() {
		retries = e.cfg.OpRetries
	}
	var err error
	for attempt := 0; ; attempt++ {
		st.armWatchdog(d, op)
		err = st.execFaulty(d, op)
		st.disarmWatchdog(d)
		if err == nil {
			if attempt > 0 {
				st.noteRetries(d, op, attempt)
			}
			return nil
		}
		// A round abort is not this op's failure: never retry it, never
		// degrade over it.
		if errors.Is(err, errRoundAborted) || st.failed.Load() || attempt >= retries {
			break
		}
		if b := e.cfg.RetryBackoff; b > 0 {
			select {
			case <-time.After(b << attempt):
			case <-st.abortC:
				return err
			}
		}
	}
	if op.Kind.IsRefresh() && !errors.Is(err, errRoundAborted) && !st.failed.Load() {
		st.noteDegraded(d, op, t0, err)
		return nil
	}
	return err
}

// execFaulty consults the fault injector around the real op execution:
// stalls delay (abort-aware), injected failures and drops replace the op,
// and corruption poisons the op's output after it ran.
func (st *runState) execFaulty(d int, op *pipeline.Op) error {
	e := st.e
	if e.inj == nil {
		return st.exec(d, op)
	}
	out := e.inj.At(e.stepIndex+op.Step, d, op.Kind, op.MicroBatch)
	if out.Delay > 0 {
		// An injected stall models a straggling or hung device. The sleep
		// is abort-aware so a watchdog abort (or any peer failure) unparks
		// it promptly — the injected analog of a kernel that CAN be
		// interrupted; a genuinely stuck kernel still blocks the join.
		select {
		case <-time.After(out.Delay):
		case <-st.abortC:
			return errRoundAborted
		}
	}
	if out.Kill {
		// A kill fault models this rank dying, not an op failing: the
		// registered hook does the dying (the CLI exits the process; tests
		// sever the transport so peers observe a real rank death), and the
		// error below only matters when the hook leaves the process alive —
		// it aborts the round base-path, which the severed transport turns
		// into the peers' attributed RankFailure.
		if h := e.killHook; h != nil {
			h()
		}
		return fmt.Errorf("faults: rank %d killed at step %d (%s op on device %d)",
			e.group.Rank(), e.stepIndex+op.Step, op.Kind, d)
	}
	if out.Err != nil {
		return out.Err
	}
	err := st.exec(d, op)
	if err == nil && out.Corrupt {
		st.corruptOutput(op)
	}
	return err
}

// noteRetries annotates the op's recorded timeline event with how many
// failed attempts preceded it.
func (st *runState) noteRetries(d int, op *pipeline.Op, attempts int) {
	evs := st.events[d]
	if n := len(evs); n > 0 && evs[n-1].Op == op {
		evs[n-1].Retries = attempts
	}
}

// noteDegraded downgrades the round after a side-path failure exhausted its
// retries: the op's statistics generation is marked failed (never served
// stale, never carried), the first cause is kept for the StepResults, and a
// Degraded span covering the attempts is recorded in the timeline.
func (st *runState) noteDegraded(d int, op *pipeline.Op, t0 time.Duration, cause error) {
	if pool := st.genPool(op); pool != nil {
		pool.failed.Store(true)
	}
	st.degMu.Lock()
	if !st.degraded {
		st.degraded = true
		st.degradedReason = fmt.Sprintf("device %d op %s (%s): %v", d, op.Label(), op.Kind, cause)
	}
	st.degMu.Unlock()
	st.recordKind(d, pipeline.Degraded, op, t0, time.Since(st.start))
}

// corruptOutput poisons the value the op just produced with NaN — the
// fault model for silent numeric corruption. Every target is either caught
// by the pre-fold factor guard (inversion) or by the pre-commit health scan
// (scanStepHealth), so corruption converts to an attributed failure instead
// of silently destroying training state. Writes happen before the op's
// done-channel closes, so no consumer can be reading concurrently.
func (st *runState) corruptOutput(op *pipeline.Op) {
	nan := math.NaN()
	switch op.Kind {
	case pipeline.Forward:
		if buf := st.stageOut[op.Stage][st.flat(op)]; buf != nil && len(buf.Data) > 0 {
			buf.Data[0] = nan
			return
		}
		// Last stage publishes a loss, not an activation.
		st.lossParts[op.Step][st.gmicro(op)].Total = nan
	case pipeline.Backward:
		for _, delta := range st.deltas[op.Step][op.Stage][st.gmicro(op)] {
			if delta != nil && len(delta.Data) > 0 {
				delta.Data[0] = nan
				return
			}
		}
	case pipeline.Curvature:
		pool := st.genPool(op)
		if pool == nil {
			return
		}
		stg := st.e.sets[op.Replica].stages[op.Stage]
		li, factorB, err := stg.layerOf(op.Factor)
		if err != nil {
			return
		}
		parts := pool.curvA[op.Stage][li]
		if factorB {
			parts = pool.curvB[op.Stage][li]
		}
		if p := parts[st.gmicro(op)]; p != nil && len(p.Data) > 0 {
			p.Data[0] = nan
		}
	case pipeline.Inversion:
		if st.e.kfacPre == nil {
			return
		}
		stg := st.e.sets[op.Replica].stages[op.Stage]
		li, factorB, err := stg.layerOf(op.Factor)
		if err != nil {
			return
		}
		st.e.layerMu[op.Stage][li].Lock()
		defer st.e.layerMu[op.Stage][li].Unlock()
		s := st.e.kfacPre[op.Stage].States()[li]
		inv := s.AInv
		if factorB {
			inv = s.BInv
		}
		if inv != nil && len(inv.Data) > 0 {
			inv.Data[0] = nan
		}
	default:
		// Collectives, preconditions, optimizer anchors: poison the
		// primary's reduced gradient accumulators of the op's stage.
		if ps := st.e.sets[0].stageParams[op.Stage]; len(ps) > 0 && len(ps[0].Grad.Data) > 0 {
			ps[0].Grad.Data[0] = nan
		}
	}
}

// scanStepHealth verifies the step's losses and reduced gradients are
// finite before the optimizer commits them — the guard that turns injected
// NaN corruption into an attributed, replayable abort instead of silently
// poisoned parameters. Only called when a fault injector is active.
func (st *runState) scanStepHealth(j int) error {
	for m, part := range st.lossParts[j] {
		if math.IsNaN(part.Total) || math.IsInf(part.Total, 0) {
			return fmt.Errorf("NaN/Inf loss in micro-batch %d of step %d: corrupted step must not commit", m, j)
		}
	}
	for s, params := range st.e.sets[0].stageParams {
		for _, p := range params {
			if p.Grad.HasNaN() {
				return fmt.Errorf("NaN/Inf in reduced gradients of stage %d at step %d: corrupted step must not commit", s, j)
			}
		}
	}
	return nil
}

// watchdog converts silent hangs into attributed failures: each device's
// currently executing op is published in a packed atomic slot (op ID and
// start time), and a monitor goroutine fails any device whose op exceeds
// the configured deadline, naming the stalled device and op. It cannot
// preempt the hung op — goroutines are not killable — but the attributed
// abort unparks every *other* device, and abort-aware waits (injected
// stalls, barrier parks, dependency waits) return promptly.
//
// The deadline covers an op's full execution, including collective
// rendezvous time on SyncGrad/OptStep anchors; configure OpTimeout above
// the expected step time, not the expected op compute time. Devices parked
// at the step-commit barrier disarm their slot while parked, so a long
// legitimate barrier wait is not misattributed as that device's stall.
type watchdog struct {
	slots []atomic.Uint64 // per device: (opID+1)<<32 | start-µs, 0 = idle
	stop  chan struct{}
	done  chan struct{}
}

const wdTimeMask = (uint64(1) << 32) - 1

// startWatchdog arms the monitor for this round.
func (st *runState) startWatchdog(timeout time.Duration) {
	wd := &watchdog{
		slots: make([]atomic.Uint64, st.e.sched.Devices),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	st.wd = wd
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	go func() {
		defer close(wd.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-wd.stop:
				return
			case <-tick.C:
			}
			now := time.Since(st.start).Microseconds()
			// Flag only the longest-stalled device per tick: when one hang
			// makes several devices exceed the deadline together (barrier
			// and fold waits count toward their ops' deadlines), the oldest
			// armed op is the best root-cause candidate; the abort unparks
			// the rest.
			worst, worstElapsed := -1, int64(-1)
			for d := range wd.slots {
				v := wd.slots[d].Load()
				if v == 0 {
					continue
				}
				elapsed := now - int64(v&wdTimeMask)
				if elapsed > timeout.Microseconds() && elapsed > worstElapsed {
					worst, worstElapsed = d, elapsed
				}
			}
			if worst >= 0 {
				v := wd.slots[worst].Load()
				if v != 0 {
					op := st.e.sched.Ops[int(v>>32)-1]
					st.fail(worst, fmt.Errorf("engine: watchdog: device %d op %s (%s) stalled past the %v op deadline", worst, op.Label(), op.Kind, timeout))
				}
			}
		}
	}()
}

// stopAndJoin shuts the monitor down; called after every device joined.
func (wd *watchdog) stopAndJoin() {
	close(wd.stop)
	<-wd.done
}

// armWatchdog publishes the op a device is about to execute.
func (st *runState) armWatchdog(d int, op *pipeline.Op) {
	if st.wd == nil {
		return
	}
	us := uint64(time.Since(st.start).Microseconds()) & wdTimeMask
	st.wd.slots[d].Store(uint64(op.ID+1)<<32 | us)
}

// disarmWatchdog clears the device's slot once its op returned (or while it
// parks at the step-commit barrier).
func (st *runState) disarmWatchdog(d int) {
	if st.wd == nil {
		return
	}
	st.wd.slots[d].Store(0)
}
