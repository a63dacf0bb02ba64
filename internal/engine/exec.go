package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// errRoundAborted marks a device that was parked at a step barrier when
// another device's failure aborted the round; it is never the root cause.
var errRoundAborted = errors.New("round aborted by another device's failure")

// runState is the transient dataflow of one executed refresh round — K =
// RefreshSteps consecutive training steps walked by one persistent set of
// per-device goroutines, K = 1 being the ordinary single step. The per-op
// completion channels realize the schedule's dependency edges (cross-step
// edges — optimizer-step to next forward, curvature fold to a later step's
// inversion — through the very same mechanism as intra-step ones);
// activations and error signals are published into the staged arrays by
// their producing op and read by consumers only after the producer's
// channel closed, so the arrays need no locking of their own.
//
// Micro-batch indexing: within a step, arrays use the *global* micro-batch
// index (replica*MicroBatches + local micro); across the round they use
// the flat index step*perStep + gmicro. Replicas write disjoint slots, and
// every reduction walks its step's slots in ascending global order — the
// fixed collective order that makes gradients bit-identical across W. The
// round's K-FAC statistics come from the window's FIRST step (the batch
// whose curvature the round folds) and live in engine-owned generation
// pools (kfacGenPool), one step wide regardless of K: cur is the
// generation this round collects, pending the queue of generations
// carried from earlier rounds whose Generation = g ops — overlapped
// rounds — fold and invert here, slot g-1 holding the pool collected g
// rounds ago. cur may be nil (stale round) and pending slots may be nil
// (nothing pending at that lag); serialized rounds never have pending
// generations.
type runState struct {
	e       *Engine
	micro   [][]*data.Batch    // [step][gmicro], perStep = Replicas*MicroBatches each
	totals  []pipemodel.Totals // per step: that step's loss denominators
	refresh bool               // whether this round collects its packed refresh generation
	cur     *kfacGenPool       // the generation being collected (nil unless refresh)
	pending []*kfacGenPool     // carried generations by lag (slot g-1 = collected g rounds ago)

	done []chan struct{} // per op, closed on completion (or skip)

	stageIn  [][]*tensor.Matrix // [stage][flat] stage inputs, alive until the micro-batch's backward
	stageOut [][]*tensor.Matrix // [stage][flat] activations leaving a stage
	gradOut  [][]*tensor.Matrix // [stage][flat] error signals leaving a stage
	slot     [][]*actSlot       // [stage][flat] the activation slot holding the micro-batch between forward and backward

	lossParts [][]pipemodel.Loss // [step][gmicro], written by the last stage

	// Gradient-collective state, per step of the round: carried holds the
	// step's pre-step accumulators (restored as the base of the reduction
	// and, on an abort, as the rollback state; step 0's captured in the
	// round prologue, later steps' at the previous step's commit barrier,
	// each released at its own step's commit), deltas the per-micro-batch
	// contributions snapshotted by each backward, foldDone the per-(step, stage)
	// once-guards of the reduction (any participant of the stage's
	// collective may perform it; latecomers block until it finished), and
	// foldErr a reduction failure to surface.
	carried  [][][]*tensor.Matrix   // [step][stage][param]
	deltas   [][][][]*tensor.Matrix // [step][stage][gmicro][param]
	foldDone [][]sync.Once          // [step][stage]
	foldErr  [][]error              // [step][stage], written inside foldDone

	// Step-commit barrier: every step's OptStep ops rendezvous here after
	// folding their stages; the last arriver commits the step (optimizer
	// callback, then next-step gradient state and parameter broadcast)
	// while every other device is parked and no next-step op can have
	// started — the round-internal step boundary.
	optMu     sync.Mutex
	optLeft   []int           // per step: OptStep arrivals outstanding
	optDone   []chan struct{} // per step, closed once the step committed
	optErr    []error         // per step, written by the committing device
	committed int             // steps whose optimizer callback completed

	failMu    sync.Mutex // guards errs: first error per device wins
	errs      []error    // per device
	failed    atomic.Bool
	abortC    chan struct{} // closed on first failure: unparks barrier waiters
	abortOnce sync.Once

	// resilient selects the fault-tolerant execution path (resilience.go):
	// injector consultation, watchdog arming, retry/degrade. False — no
	// fault plan, no timeout, no retries — takes the exact pre-fault code
	// path, so the resilience layer costs nothing when unused.
	resilient bool
	wd        *watchdog // armed per-op deadlines, nil unless OpTimeout > 0

	// Degraded-mode record: set when a side-path failure past the retry
	// budget downgraded the round instead of aborting it (the first
	// failure's description is kept for StepResult.DegradedReason).
	degMu          sync.Mutex
	degraded       bool
	degradedReason string

	events [][]pipeline.Event // per device, measured wall-clock
	start  time.Time
}

// gmicro maps an op to its global micro-batch index within its step.
func (st *runState) gmicro(op *pipeline.Op) int {
	return op.Replica*st.e.cfg.MicroBatches + op.MicroBatch
}

// flat maps an op to its round-wide micro-batch slot (activations and
// error signals of different steps must not collide).
func (st *runState) flat(op *pipeline.Op) int {
	return op.Step*len(st.micro[0]) + st.gmicro(op)
}

// genPool resolves the statistics pool a refresh op works on: the round's
// own collection pool for Generation-0 ops (nil when this round does not
// refresh — the op no-ops, the stale-round discipline), the pool collected
// g rounds ago for Generation-g carried ops (nil when no generation is
// pending at that lag). The pool-per-generation buffering is what keeps a
// new window's snapshots from clobbering factors still being folded.
func (st *runState) genPool(op *pipeline.Op) *kfacGenPool {
	if g := op.Generation; g > 0 {
		if g-1 < len(st.pending) {
			return st.pending[g-1]
		}
		return nil
	}
	if st.refresh {
		return st.cur
	}
	return nil
}

// fail records a device failure and aborts the round: the failed flag stops
// further execution, and the abort channel unparks any device waiting at a
// step-commit barrier whose quorum will never arrive. The first error per
// device wins — except that a real root cause replaces a parked-at-barrier
// errRoundAborted — so a watchdog's attributed stall report is not
// clobbered when the stalled op itself later returns.
func (st *runState) fail(d int, err error) {
	st.failMu.Lock()
	if st.errs[d] == nil || (errors.Is(st.errs[d], errRoundAborted) && !errors.Is(err, errRoundAborted)) {
		st.errs[d] = err
	}
	st.failMu.Unlock()
	st.failed.Store(true)
	st.abortOnce.Do(func() {
		close(st.abortC)
		// Poison the transport epoch so peers blocked in a collective this
		// rank will never complete fail promptly with the attributed reason
		// (and replay from checkpoint in lockstep) instead of hanging. No-op
		// on the loopback group.
		st.e.group.Abort(err)
	})
}

// runRound executes the engine's schedule once — all RefreshSteps steps of
// it: one persistent goroutine per device walks that device's whole op
// order with no teardown between steps, waiting on each op's dependency
// channels, executing the op, then signalling completion. Step boundaries
// are realized by the OptStep commit barrier (optimizer callback, gradient
// re-zeroing, parameter broadcast), not by joining the goroutines. On the
// first error the round is aborted — remaining ops are drained (signalled
// without executing) so no peer can block on a dependency that will never
// arrive, the gradient state is rolled back to the first uncommitted
// step's pre-step accumulators, and the error is surfaced after all
// devices joined, along with how many steps had already committed.
func (e *Engine) runRound(micro [][]*data.Batch, totals []pipemodel.Totals, refresh bool, cur *kfacGenPool, pending []*kfacGenPool) ([]*StepResult, int, error) {
	nStages := e.cfg.Stages
	r := len(micro)
	perStep := len(micro[0])
	nFlat := r * perStep
	st := &runState{
		e: e, micro: micro, totals: totals, refresh: refresh, cur: cur, pending: pending,
		done:      make([]chan struct{}, len(e.sched.Ops)),
		stageIn:   mat2(nStages, nFlat),
		stageOut:  mat2(nStages, nFlat),
		gradOut:   mat2(nStages, nFlat),
		slot:      make([][]*actSlot, nStages),
		lossParts: make([][]pipemodel.Loss, r),
		carried:   make([][][]*tensor.Matrix, r),
		deltas:    make([][][][]*tensor.Matrix, r),
		foldDone:  make([][]sync.Once, r),
		foldErr:   make([][]error, r),
		optLeft:   make([]int, r),
		optDone:   make([]chan struct{}, r),
		optErr:    make([]error, r),
		errs:      make([]error, e.sched.Devices),
		abortC:    make(chan struct{}),
		events:    make([][]pipeline.Event, e.sched.Devices),
		start:     time.Now(),
	}
	for i := range st.done {
		st.done[i] = make(chan struct{})
	}
	for s := range st.slot {
		st.slot[s] = make([]*actSlot, nFlat)
	}
	for j := 0; j < r; j++ {
		st.lossParts[j] = make([]pipemodel.Loss, perStep)
		st.carried[j] = make([][]*tensor.Matrix, nStages)
		st.deltas[j] = make([][][]*tensor.Matrix, nStages)
		st.foldDone[j] = make([]sync.Once, nStages)
		st.foldErr[j] = make([]error, nStages)
		st.optDone[j] = make(chan struct{})
		for s := 0; s < nStages; s++ {
			params := e.sets[0].stageParams[s]
			st.carried[j][s] = make([]*tensor.Matrix, len(params))
			st.deltas[j][s] = make([][]*tensor.Matrix, perStep)
			for m := 0; m < perStep; m++ {
				st.deltas[j][s][m] = make([]*tensor.Matrix, len(params))
			}
		}
	}
	for _, op := range e.sched.Ops {
		if op.Kind == pipeline.OptStep {
			st.optLeft[op.Step]++
		}
	}
	// Move the primary's pre-round gradient state aside (accumulate
	// semantics: step 0's reduction re-adds it as its base) and start every
	// replica's accumulators from zero, so each backward's snapshot is
	// exactly its micro-batch's contribution. Later steps get the same
	// treatment at the previous step's commit barrier.
	st.captureStepBase(0)

	// The resilience layer (injector, watchdog, retry/degrade) engages only
	// when something configured it; the default engine takes the branch-free
	// pre-fault path below.
	st.resilient = e.inj != nil || e.cfg.OpTimeout > 0 || e.cfg.OpRetries > 0
	if e.cfg.OpTimeout > 0 {
		st.startWatchdog(e.cfg.OpTimeout)
	}

	var wg sync.WaitGroup
	for d := 0; d < e.sched.Devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, id := range e.sched.Order[d] {
				op := e.sched.Ops[id]
				for _, dep := range op.Deps {
					if st.resilient {
						// Abort-aware wait: after an abort nothing executes
						// (only drains), so a dep whose producer is hung —
						// the case the watchdog attributes — must not block
						// the drain of every other device.
						select {
						case <-st.done[dep]:
						case <-st.abortC:
						}
						continue
					}
					<-st.done[dep]
				}
				if !st.failed.Load() {
					var err error
					if st.resilient {
						err = st.execResilient(d, op)
					} else {
						err = st.exec(d, op)
					}
					if err != nil {
						st.fail(d, fmt.Errorf("engine: device %d op %s: %w", d, op.Label(), err))
					}
				}
				close(st.done[id])
			}
		}(d)
	}
	wg.Wait()
	if st.wd != nil {
		st.wd.stopAndJoin()
	}
	var root, aborted error
	for _, err := range st.errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errRoundAborted) {
			if aborted == nil {
				aborted = err
			}
			continue
		}
		if root == nil {
			root = err
		}
	}
	if root == nil {
		root = aborted
	}
	if root != nil {
		st.rollback()
		// Committed steps really happened (their optimizer updates stand),
		// so their results are returned alongside the error — the caller's
		// loss curve must not silently skip steps it can never re-run.
		return st.results(st.committed), st.committed, root
	}
	// The round committed, and every step's commit released its carried
	// rollback state on the way.
	e.lastTimeline = st.timeline()
	return st.results(r), st.committed, nil
}

// results assembles the StepResults of the round's first upTo steps (all of
// them on success; the committed prefix on an abort).
func (st *runState) results(upTo int) []*StepResult {
	res := make([]*StepResult, upTo)
	for j := 0; j < upTo; j++ {
		res[j] = &StepResult{
			DeviceBusy: make([]float64, st.e.sched.Devices), Refreshed: st.refresh,
			Degraded: st.degraded, DegradedReason: st.degradedReason,
		}
		for _, part := range st.lossParts[j] {
			res[j].Loss.Add(part)
		}
	}
	for d := range st.events {
		for _, ev := range st.events[d] {
			if j := ev.Op.Step; j >= 0 && j < upTo {
				res[j].DeviceBusy[d] += float64(ev.Duration()) / 1e6
			}
		}
	}
	return res
}

// captureStepBase prepares step j's gradient-collective state: it
// snapshots the primary's accumulators as the step's carried reduction
// base (accumulate semantics — the fold re-adds it), zeroes them so each
// backward's delta is exactly its micro-batch's contribution, and zeroes
// every replica's accumulators. The round prologue uses it for step 0 and
// the commit barrier for each following step, so the preparation sequence
// exists once.
func (st *runState) captureStepBase(j int) {
	for s := range st.e.sets[0].stageParams {
		for k, p := range st.e.sets[0].stageParams[s] {
			st.carried[j][s][k] = tensor.GetClone(p.Grad)
			p.Grad.Zero()
		}
	}
	st.zeroSecondaryGrads()
}

// zeroSecondaryGrads clears the accumulators of every module set but the
// primary: the state each backward's delta snapshot starts from.
func (st *runState) zeroSecondaryGrads() {
	for _, set := range st.e.sets[1:] {
		nn.ZeroGrads(set.params)
	}
}

// releaseCarried returns step j's captured carried buffers to the pool.
// rollback only ever reads the first uncommitted step's, so a step's base
// is dead once the step committed.
func (st *runState) releaseCarried(j int) {
	for s := range st.carried[j] {
		for k, c := range st.carried[j][s] {
			if c != nil {
				tensor.Put(c)
				st.carried[j][s][k] = nil
			}
		}
	}
}

// rollback restores the gradient state after an aborted round. Committed
// steps stand — their optimizer updates already happened and cannot be
// undone without parameter snapshots — so the restore target is the first
// *uncommitted* step: every stage gets that step's carried accumulators
// back (including stages whose reduction already ran, since a step's
// carried buffers live until the step commits), partial per-micro deltas of
// every step are released, and every other module set's accumulators are
// re-zeroed so the snapshot discipline of the next round starts clean.
func (st *runState) rollback() {
	j := st.committed // the step that failed to commit
	if j < len(st.carried) {
		for s := range st.carried[j] {
			params := st.e.sets[0].stageParams[s]
			for k, p := range params {
				if st.carried[j][s][k] != nil {
					p.Grad.CopyFrom(st.carried[j][s][k])
				}
			}
		}
	}
	for j := st.committed; j < len(st.carried); j++ {
		st.releaseCarried(j)
	}
	for j := range st.deltas {
		for s := range st.deltas[j] {
			for m := range st.deltas[j][s] {
				for k, d := range st.deltas[j][s][m] {
					if d != nil {
						tensor.Put(d)
						st.deltas[j][s][m][k] = nil
					}
				}
			}
		}
	}
	// In-flight activation hand-offs and error signals are pooled clones
	// (published by forward/backward, normally recycled by their consumer's
	// backward); an abort strands whichever ones were never consumed.
	// stageIn[s] aliases stageOut[s-1] for the same slot — a consumer stage
	// keeps the producer's published clone as its input until its backward
	// (stage 0 keeps a clone of the embedding output) — so the sweep dedupes
	// by pointer before returning buffers to the pool. The activation slots
	// the stranded micro-batches held are simply all free again.
	seen := make(map[*tensor.Matrix]bool)
	putOnce := func(arr [][]*tensor.Matrix) {
		for s := range arr {
			for m, buf := range arr[s] {
				if buf != nil && !seen[buf] {
					seen[buf] = true
					tensor.Put(buf)
				}
				arr[s][m] = nil
			}
		}
	}
	putOnce(st.stageIn)
	putOnce(st.stageOut)
	putOnce(st.gradOut)
	for _, set := range st.e.sets {
		for _, stg := range set.stages {
			stg.freeAll()
		}
	}
	st.zeroSecondaryGrads()
}

// foldStages performs the gradient collective of every stage the op's
// device participates in — for the op's step — exactly once per (step,
// stage) (Once.Do blocks the other participants until the reduction
// finished — the rendezvous of the all-reduce), routed through the
// engine's transport group. The stages are the ones the schedule's
// placement says the device hosts: a chimera device syncs two, every other
// topology the op's own. Returns the bytes this call actually put on the
// wire (zero for a latecomer that only waited on another participant's
// fold).
func (st *runState) foldStages(op *pipeline.Op) (int64, error) {
	j := op.Step
	var bytes int64
	for _, s := range st.e.sched.Placement.Hosted[op.Device] {
		st.foldDone[j][s].Do(func() {
			var nb int64
			nb, st.foldErr[j][s] = foldParams(st.e.group, st.e.foldOps[s],
				st.e.sets[0].stageParams[s], st.carried[j][s], st.deltas[j][s])
			bytes += nb
		})
		if st.foldErr[j][s] != nil {
			return bytes, fmt.Errorf("gradient collective of stage %d step %d: %w", s, j, st.foldErr[j][s])
		}
	}
	return bytes, nil
}

// arriveOptBarrier joins the op's step-commit barrier. The last OptStep of
// the step to arrive commits it (commitStep) while every other device is
// parked here and no next-step op can have started — the commit runs with
// exclusive access to all parameters. Waiters unblock either on the commit
// or on a round abort (a peer failed and its OptStep will never arrive).
func (st *runState) arriveOptBarrier(d int, op *pipeline.Op) error {
	j := op.Step
	st.optMu.Lock()
	st.optLeft[j]--
	last := st.optLeft[j] == 0
	st.optMu.Unlock()
	if last {
		st.optErr[j] = st.commitStep(j)
		close(st.optDone[j])
		return st.optErr[j]
	}
	// A barrier park is a legitimate, possibly long wait on the step's
	// other devices — not this device's stall: disarm its watchdog slot
	// while parked (no-op when no watchdog is armed).
	st.disarmWatchdog(d)
	select {
	case <-st.optDone[j]:
		return st.optErr[j]
	case <-st.abortC:
		return errRoundAborted
	}
}

// commitStep finishes step j inside the round: it fires the caller's
// optimizer callback (the real parameter update — all folds and
// preconditions of the step are complete, because every device's OptStep
// has arrived), then prepares step j+1 exactly the way the round prologue
// prepared step 0 — primary gradient accumulators zeroed and captured as
// the next carried base, replica accumulators zeroed, and the updated
// primary parameters re-broadcast to every replica.
func (st *runState) commitStep(j int) error {
	e := st.e
	if e.multiRank {
		// Reduce the step's loss across the group before anything commits:
		// every rank then reports the global batch's loss, and — because a
		// NaN anywhere in the group lands in every rank's reduced loss — the
		// health scan below aborts symmetrically on all ranks, keeping their
		// step counts (and checkpoint replays) in lockstep.
		if err := st.syncLoss(j); err != nil {
			return err
		}
	}
	if e.inj != nil {
		// Fault plans can corrupt activations, deltas, or accumulators with
		// NaN; committing a poisoned step would destroy the parameters with
		// no way back. Scan losses and reduced gradients before the
		// optimizer fires — an attributed abort here is what checkpoint/
		// replay recovers from. Injector-gated: the scan costs a pass over
		// the parameters, which the fault-free fast path must not pay.
		if err := st.scanStepHealth(j); err != nil {
			return err
		}
	}
	if e.optApply != nil {
		if err := e.optApply(e.stepIndex + j); err != nil {
			return fmt.Errorf("optimizer callback at step %d: %w", e.stepIndex+j, err)
		}
		// When the engine owns the optimizer it also owns the zeroing half
		// of the classic ZeroGrads / TrainStep / Step loop — after every
		// step, including the round's last, so the next round starts from
		// clean accumulators exactly like the manual loop would.
		for _, p := range e.sets[0].params {
			p.Grad.Zero()
		}
	}
	st.committed = j + 1
	st.releaseCarried(j)
	if j == len(st.micro)-1 {
		return nil // round over
	}
	st.captureStepBase(j + 1)
	return e.broadcastParams()
}

// exec dispatches one op. SyncCurvature is a pure dependency barrier in
// this in-process realization — the factor fold reads every replica's
// partials directly. OptStep is where a step commits: it anchors the
// step's gradient collective and then rendezvouses with the step's other
// OptStep ops so the optimizer fires exactly once per step, inside the
// round.
func (st *runState) exec(d int, op *pipeline.Op) error {
	if hook := st.e.failOp; hook != nil {
		if err := hook(op); err != nil {
			return err
		}
	}
	switch op.Kind {
	case pipeline.Forward:
		return st.forward(d, op)
	case pipeline.Backward:
		return st.backward(d, op)
	case pipeline.Curvature:
		if pool := st.genPool(op); pool != nil {
			return st.curvature(d, op, pool)
		}
		return nil
	case pipeline.Inversion:
		if pool := st.genPool(op); pool != nil {
			return st.inversion(d, op, pool)
		}
		return nil
	case pipeline.Precondition:
		return st.precondition(d, op)
	case pipeline.SyncGrad:
		t0 := time.Since(st.start)
		bytes, err := st.foldStages(op)
		if err != nil {
			return err
		}
		st.recordComm(d, op, t0, bytes)
		return nil
	case pipeline.OptStep:
		// The last anchor of the stage's step tail: on W = 1 non-K-FAC
		// schedules (no SyncGrad, no Precondition) it is where the
		// gradient reduction lands; on every schedule it is where the
		// step's commit barrier sits. The recorded event measures the
		// fold, the rendezvous wait, and (on the committing device) the
		// optimizer callback and broadcast, keeping executed timelines
		// honest about where step-boundary time goes.
		t0 := time.Since(st.start)
		bytes, err := st.foldStages(op)
		if err != nil {
			return err
		}
		if err := st.arriveOptBarrier(d, op); err != nil {
			return err
		}
		st.recordComm(d, op, t0, bytes)
		return nil
	case pipeline.SyncCurvature:
		// Like Curvature/Inversion, the exchange only happens for a live
		// generation (the round's own, or — Generation = 1 — a carried
		// one); otherwise the op is a silent no-op so the executed timeline
		// matches the work done.
		if st.genPool(op) != nil {
			st.record(d, op, time.Since(st.start))
		}
		return nil
	}
	return fmt.Errorf("unexpected op kind %v", op.Kind)
}

// forward embeds (stage 0) or receives the upstream activation, runs the
// stage's blocks on a free activation slot — which then holds the
// micro-batch's activations until its backward — evaluates the loss on the
// last stage, and publishes the output for the next stage. On the first step
// of a refresh round it snapshots each dense layer's input activations — the
// A-factor statistics that rule 1 makes schedulable from this point on, for
// the whole window.
func (st *runState) forward(d int, op *pipeline.Op) error {
	s, m := op.Stage, st.flat(op)
	si := st.e.setIndex(op)
	rep := st.e.sets[si]
	stg := rep.stages[s]
	mb := st.micro[op.Step][st.gmicro(op)]
	if st.e.shard != nil {
		// ZeRO gather-on-use: attach the stage's non-owned parameter values
		// for the duration of this op.
		st.e.gatherStage(si, s, false)
		defer st.e.releaseStage(si, s)
	}
	t0 := time.Since(st.start)

	var x *tensor.Matrix
	if stg.first {
		// The embedding output is a model-retained buffer the next
		// micro-batch's embedding overwrites, and the slot's first layers
		// read their input again in backward: keep a pooled copy, like the
		// hand-off clone every later stage receives.
		x = tensor.GetClone(rep.model.EmbedForward(mb))
	} else if x = st.stageOut[s-1][m]; x == nil {
		return fmt.Errorf("no activation from stage %d for micro-batch slot %d", s-1, m)
	}
	st.stageIn[s][m] = x
	sl, err := stg.take()
	if err != nil {
		return err
	}
	st.slot[s][m] = sl
	y := sl.forward(x, mb.BatchSize, mb.SeqLen)
	if stg.last {
		loss, err := rep.model.HeadLoss(mb, y, st.totals[op.Step])
		if err != nil {
			return err
		}
		st.lossParts[op.Step][st.gmicro(op)] = loss
	} else {
		// The stage output stays in the slot for this stage's backward; the
		// consumer stage gets a pooled copy it keeps as its own input
		// (returned to the pool after its backward).
		st.stageOut[s][m] = tensor.GetClone(y)
	}
	if st.refresh && op.Step == 0 {
		// Snapshot the A-factor statistics into the collecting
		// generation's pool: the layer-retained capture buffers are only
		// valid until this stage's next op, but the scheduled Curvature
		// ops consume the snapshots later — in the bubbles of whichever
		// step the packer chose, possibly the NEXT round's (carried ops
		// under overlap), which is why the pool is engine-owned.
		// SnapClone narrows to float32 when the compute mode asks for it:
		// the snapshots dominate Msave_err, and the Gram reduction widens
		// exactly, so narrowing here is the float32 mode's memory win.
		for li, l := range sl.layers {
			st.cur.actsSnap[s][st.gmicro(op)][li] = tensor.SnapClone(l.CapturedInput())
		}
	}
	st.record(d, op, t0)
	return nil
}

// backward backpropagates the micro-batch through the activation slot its
// forward left it in — nothing is recomputed but stage 0's embedding, whose
// caches the model keeps for one micro-batch only — and frees the slot: the
// last stage seeds the chain with the head's globally-scaled loss gradient,
// other stages consume the error signal of the stage after them, and stage
// 0 finishes into the embedding tables. Everything only a backward writes
// goes to the device's scratch. On the first step of a refresh round it
// snapshots each dense layer's output gradients — the B-factor statistics
// of rule 1. Finally the micro-batch's accumulated parameter gradients move
// into their pooled collective delta buffers (zeroing the set's
// accumulators — shared by the stage's slots, exact because each backward's
// contribution leaves before the next one starts).
func (st *runState) backward(d int, op *pipeline.Op) error {
	s, m := op.Stage, st.flat(op)
	si := st.e.setIndex(op)
	rep := st.e.sets[si]
	stg := rep.stages[s]
	mb := st.micro[op.Step][st.gmicro(op)]
	if st.e.shard != nil {
		// ZeRO gather-on-use, backward form: values for the input gradients
		// plus zeroed gradient accumulators — the delta snapshot below moves
		// the accumulated contribution out before the release returns the
		// buffers to the pool.
		st.e.gatherStage(si, s, true)
		defer st.e.releaseStage(si, s)
	}
	t0 := time.Since(st.start)

	sl := st.slot[s][m]
	if sl == nil {
		return fmt.Errorf("no activations held for micro-batch slot %d", m)
	}
	var grad *tensor.Matrix
	if stg.last {
		var err error
		grad, err = rep.model.HeadGradient(mb, sl.out, st.totals[op.Step])
		if err != nil {
			return err
		}
	} else {
		grad = st.gradOut[s+1][m]
		if grad == nil {
			return fmt.Errorf("no error signal from stage %d for micro-batch slot %d", s+1, m)
		}
	}
	grad = sl.backward(grad, st.e.scratch[d])
	if st.refresh && op.Step == 0 {
		// Snapshot the B-factor statistics into the collecting
		// generation's pool (see the A-factor snapshot in forward).
		// In float32 mode the layer's capture already lives in a narrow
		// buffer; Snap.Clone copies it without a widen/narrow round trip.
		for li, l := range sl.layers {
			st.cur.gradsSnap[s][st.gmicro(op)][li] = l.CapturedOutputGradSnap().Clone()
		}
	}
	if stg.first {
		rep.model.EmbedForward(mb) // EmbedBackward reads the caches of the embedding it directly follows
		rep.model.EmbedBackward(grad)
	} else {
		// Like forward activations, the outgoing error signal is a
		// module-retained buffer; publish a pooled copy.
		st.gradOut[s][m] = tensor.GetClone(grad)
	}
	// The micro-batch finished accumulating on this module set's stage:
	// move its gradient contribution into the collective's delta slot.
	snapshotGradDeltas(rep.stageParams[s], st.deltas[op.Step][s][st.gmicro(op)])
	// Recycle what the micro-batch held: its activation slot, the pooled
	// stage input (the previous stage's hand-off, or stage 0's embedding
	// clone) and the error signal from the next stage.
	stg.release(sl)
	st.slot[s][m] = nil
	tensor.Put(st.stageIn[s][m])
	st.stageIn[s][m] = nil
	if !stg.first {
		st.stageOut[s-1][m] = nil
	}
	if !stg.last {
		tensor.Put(st.gradOut[s+1][m])
		st.gradOut[s+1][m] = nil
	}
	st.record(d, op, t0)
	return nil
}

// curvature computes one micro-batch's partial Kronecker-factor product
// (U^T U) from the statistics snapshotted in its generation's first step —
// the bubble-filling work of rule 1, at the factor granularity the packer
// scheduled, in whichever step's bubble the packer placed it (a carried op
// runs one window later, against the previous generation's pool). Partials
// land in global micro-batch slots, so the later factor fold reduces every
// replica's contributions in the same fixed order as the gradient
// collective. It touches no module: the snapshot and partial slots of one
// (stage, micro-batch, layer) belong to this op alone, by the dependency
// edges.
func (st *runState) curvature(d int, op *pipeline.Op, pool *kfacGenPool) error {
	s, m := op.Stage, st.gmicro(op)
	stg := st.e.sets[op.Replica].stages[s]
	li, factorB, err := stg.layerOf(op.Factor)
	if err != nil {
		return err
	}
	t0 := time.Since(st.start)
	var stat tensor.Snap
	if factorB {
		stat = pool.gradsSnap[s][m][li]
	} else {
		stat = pool.actsSnap[s][m][li]
	}
	if !stat.Valid() {
		return fmt.Errorf("no captured statistics for layer %d factor %d micro-batch %d", li, op.Factor, m)
	}
	// The partial Gram product U^T U goes into a pooled buffer (released
	// by the inversion op once it is folded into the factor sum), and the
	// statistics snapshot is recycled here — its only consumer. The partial
	// stays float64 even when the snapshot is a float32 Snap: factor sums
	// and EMAs accumulate across micro-batches and rounds, where narrow
	// accumulation would compound.
	part := tensor.Get(stat.Cols(), stat.Cols())
	stat.GramInto(part)
	if factorB {
		pool.curvB[s][li][m] = part
		pool.rowsB[s][li][m] = stat.Rows()
		pool.gradsSnap[s][m][li] = tensor.Snap{}
	} else {
		pool.curvA[s][li][m] = part
		pool.rowsA[s][li][m] = stat.Rows()
		pool.actsSnap[s][m][li] = tensor.Snap{}
	}
	stat.Release()
	st.record(d, op, t0)
	return nil
}

// inversion finalizes the layer's factors on first touch of its generation
// (folding the accumulated per-micro-batch products of every replica into
// the shared preconditioner's EMA, in ascending global micro-batch order —
// the distributed K-FAC factor exchange) and then refreshes the cached
// inverse of the op's factor — rule 2's unit of inversion work. The
// per-layer lock (instead of a stage-wide one) is what lets
// InversionParallel's round-robin sharding run different layers' inversions
// concurrently on different devices of the replica group. In a multi-step
// round the op may execute in a later step's bubble — or, carried under
// overlapped rounds, in the NEXT round's bubbles — and the generation pool
// keeps the fold exact either way: the fold marker and the loss scale
// belong to the pool, so a carried fold uses its own generation's
// statistics batch, and the cross-generation dependency edges order a
// layer's carried fold before the newer generation folds on top.
func (st *runState) inversion(d int, op *pipeline.Op, pool *kfacGenPool) error {
	s := op.Stage
	stg := st.e.sets[op.Replica].stages[s]
	li, factorB, err := stg.layerOf(op.Factor)
	if err != nil {
		return err
	}
	st.e.layerMu[s][li].Lock()
	defer st.e.layerMu[s][li].Unlock()
	t0 := time.Since(st.start)
	var bytes int64
	if !pool.folded[s][li] {
		// The statistics — and therefore the loss scale — come from the
		// generation's own statistics batch (its collect round's first
		// step), not the folding round's.
		scale := st.e.sets[0].model.KFACLossScale(pool.totals)
		newA, newB, nb, err := st.e.foldFactors(st.e.kfacFold[s][li], pool, s, li, scale*scale)
		if err != nil {
			return fmt.Errorf("factors of layer %d: %w", li, err)
		}
		bytes = nb
		if st.e.inj != nil && (newA.HasNaN() || newB.HasNaN()) {
			// Corrupted partials must not poison the preconditioner's EMA —
			// SetFactors folds into long-lived state no retry could repair.
			// Failing before the fold leaves the partials in place, so a
			// retry re-sums them and, still poisoned, the op degrades.
			tensor.Put(newA)
			tensor.Put(newB)
			return fmt.Errorf("NaN/Inf in folded curvature factors of layer %d stage %d", li, s)
		}
		if err := st.e.kfacPre[s].SetFactors(li, newA, newB); err != nil {
			return err
		}
		// SetFactors copies into the preconditioner's own state (it never
		// retains the arguments), so the fold's pooled sums go straight
		// back to the workspace pool.
		tensor.Put(newA)
		tensor.Put(newB)
		pool.folded[s][li] = true
		// The per-micro-batch partial products are folded in; recycle
		// their pooled buffers.
		for i, part := range pool.curvA[s][li] {
			tensor.Put(part)
			pool.curvA[s][li][i] = nil
		}
		for i, part := range pool.curvB[s][li] {
			tensor.Put(part)
			pool.curvB[s][li][i] = nil
		}
	}
	if err := st.e.kfacPre[s].InvertFactor(li, factorB); err != nil {
		return err
	}
	st.recordComm(d, op, t0, bytes)
	return nil
}

// precondition rewrites the stage's gradients with the cached K-FAC
// inverses — the per-step Precondition op, "the only computational
// overhead of PipeFisher" (Figure 1). In a multi-step round each step
// preconditions with the freshest inverses whose inversions the packer
// placed in steps up to its own (the dependency edges enforce it), and
// with the previous refresh's stale inverses for factors still in flight —
// the paper's stale-but-cheap discipline. Only the primary replica's op
// does the work: the collective already reduced the group's gradients into
// the primary's accumulators, which are the only ones the optimizer
// consumes. It first joins the step's gradient collective, which on W = 1
// schedules without SyncGrad ops (gpipe/1f1b) is where the reduction
// lands.
func (st *runState) precondition(d int, op *pipeline.Op) error {
	// t0 is taken before the fold so the recorded event covers the
	// gradient reduction this op anchors on W = 1 schedules, not only the
	// inverse application.
	t0 := time.Since(st.start)
	bytes, err := st.foldStages(op)
	if err != nil {
		return err
	}
	if st.e.kfacPre == nil || op.Replica != 0 {
		return nil
	}
	// The primary's stage-s gradients are this op's alone: its dependency
	// edges follow every fold into them, and the step's OptStep barrier
	// precedes any next-step op.
	st.e.kfacPre[op.Stage].Precondition()
	st.recordComm(d, op, t0, bytes)
	return nil
}

// record appends a measured event for op, ending now.
func (st *runState) record(d int, op *pipeline.Op, t0 time.Duration) {
	st.recordKind(d, op.Kind, op, t0, time.Since(st.start))
}

// recordComm appends a measured event that moved bytes over the collective
// transport (zero on loopback groups and for latecomers to a shared fold —
// the recorded column is bytes THIS op put on the wire).
func (st *runState) recordComm(d int, op *pipeline.Op, t0 time.Duration, bytes int64) {
	st.recordKind(d, op.Kind, op, t0, time.Since(st.start))
	evs := st.events[d]
	evs[len(evs)-1].Bytes = bytes
}

// recordKind appends a measured event, possibly under a different kind
// than the schedule op (the Degraded span of a refresh op that gave up).
func (st *runState) recordKind(d int, kind pipeline.WorkKind, op *pipeline.Op, t0, t1 time.Duration) {
	ev := op
	if kind != op.Kind {
		ev = &pipeline.Op{
			Kind: kind, Device: op.Device, Stage: op.Stage, Replica: op.Replica,
			MicroBatch: op.MicroBatch, Factor: op.Factor, Step: op.Step,
		}
	}
	start := hardware.Microseconds(t0.Microseconds())
	end := hardware.Microseconds(t1.Microseconds())
	if end < start {
		end = start
	}
	st.events[d] = append(st.events[d], pipeline.Event{Op: ev, Start: start, End: end})
}

// timeline assembles the executed round's measured timeline — Steps =
// RefreshSteps, with per-step boundaries so traces can draw the round's
// internal step structure — recording the intra-op parallelism the kernels
// ran with so the executed trace can be compared against simulated ones on
// equal terms.
func (st *runState) timeline() *pipeline.Timeline {
	r := len(st.micro)
	tl := &pipeline.Timeline{
		Name:          st.e.sched.Name + " (executed)",
		Devices:       st.e.sched.Devices,
		Steps:         r,
		Events:        st.events,
		StepEnd:       make([]hardware.Microseconds, r),
		Parallelism:   st.e.workers,
		OpParallelism: st.e.opShare,
	}
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if ev.End > tl.Makespan {
				tl.Makespan = ev.End
			}
			if j := ev.Op.Step; j >= 0 && j < r && ev.End > tl.StepEnd[j] {
				tl.StepEnd[j] = ev.End
			}
		}
	}
	for j := 1; j < r; j++ {
		if tl.StepEnd[j] < tl.StepEnd[j-1] {
			tl.StepEnd[j] = tl.StepEnd[j-1]
		}
	}
	// Stamp every event with the elastic membership view it executed under,
	// and mark the first round after a membership change with a
	// zero-duration Membership span at the timeline's origin — the regroup
	// marker trace renderers draw.
	if e := st.e; e.memberView > 0 {
		for d := range tl.Events {
			for i := range tl.Events[d] {
				tl.Events[d][i].Membership = e.memberView
			}
		}
		if e.memberChanged {
			e.memberChanged = false
			mark := pipeline.Event{
				Op:         &pipeline.Op{Kind: pipeline.Membership, Step: 0},
				Membership: e.memberView,
			}
			tl.Events[0] = append([]pipeline.Event{mark}, tl.Events[0]...)
		}
	}
	return tl
}

func mat2(a, b int) [][]*tensor.Matrix {
	out := make([][]*tensor.Matrix, a)
	for i := range out {
		out[i] = make([]*tensor.Matrix, b)
	}
	return out
}

func mat3(a, b, c int) [][][]*tensor.Matrix {
	out := make([][][]*tensor.Matrix, a)
	for i := range out {
		out[i] = mat2(b, c)
	}
	return out
}

func snap3(a, b, c int) [][][]tensor.Snap {
	out := make([][][]tensor.Snap, a)
	for i := range out {
		out[i] = make([][]tensor.Snap, b)
		for j := range out[i] {
			out[i][j] = make([]tensor.Snap, c)
		}
	}
	return out
}

func int3(a, b, c int) [][][]int {
	out := make([][][]int, a)
	for i := range out {
		out[i] = make([][]int, b)
		for j := range out[i] {
			out[i][j] = make([]int, c)
		}
	}
	return out
}
