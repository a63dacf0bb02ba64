package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// errRoundAborted marks an op cut short because another device's failure
// aborted the round (an injected stall or a retry backoff); it is never the
// root cause.
var errRoundAborted = errors.New("round aborted by another device's failure")

// runState is the dataflow of the engine's executed refresh rounds — K =
// RefreshSteps consecutive training steps walked by one loop per device,
// K = 1 being the ordinary single step. It is compiled once per schedule
// (rebuildSchedule) and re-armed by every round (runRound); only what
// escapes a round — its events, its StepResults and its abort channel — is
// made per round. Each op has one completion word, which holds the round
// the op last completed in: the words realize the schedule's dependency
// edges (cross-step edges — optimizer-step to next forward, curvature fold
// to a later step's inversion — through the very same mechanism as
// intra-step ones); activations and error signals are published into the
// staged arrays by their producing op and read by consumers only after the
// producer's word reads the round, so the arrays need no locking of their
// own.
//
// Micro-batch indexing: within a step, arrays use the *global* micro-batch
// index (replica*MicroBatches + local micro); across the round they use
// the flat index step*perStep + gmicro. Replicas write disjoint slots, and
// every reduction walks its step's slots in ascending global order — the
// fixed collective order that makes gradients bit-identical across W. The
// round's K-FAC statistics come from the window's FIRST step (the batch
// whose curvature the round folds) and live in engine-owned generation
// pools (kfacGenPool), one step wide regardless of K: cur is the
// generation this round collects, pending the generation collected last
// round whose Generation = 1 ops — overlapped rounds — fold and invert
// here. cur may be nil (stale round) and pending may be nil (nothing
// carried); serialized rounds never have a pending generation.
type runState struct {
	e       *Engine
	micro   [][]*data.Batch    // [step][gmicro], perStep = Replicas*MicroBatches each
	totals  []pipemodel.Totals // per step: that step's loss denominators
	refresh bool               // whether this round collects its packed refresh generation
	cur     *kfacGenPool       // the generation being collected (nil unless refresh)
	pending *kfacGenPool       // the carried generation, collected last round (nil when none)

	round  int64           // the running round, counted from 1
	done   []atomic.Int64  // per op: the round it last completed in (signal)
	parked []atomic.Int64  // per device: the op its loop is parked on, -1 when none
	wake   []chan struct{} // per device, capacity 1: a token unparks the loop (await)

	stageIn  [][]*tensor.Matrix // [stage][flat] stage inputs, alive until the micro-batch's backward
	stageOut [][]*tensor.Matrix // [stage][flat] activations leaving a stage
	gradOut  [][]*tensor.Matrix // [stage][flat] error signals leaving a stage
	slot     [][]*actSlot       // [stage][flat] the activation slot holding the micro-batch between forward and backward

	lossParts [][]pipemodel.Loss // [step][gmicro], written by the last stage

	// grads[j][s] is step j's stage-s gradient collective: the running sum
	// of the per-micro-batch delta sets each backward accumulates into,
	// written through headers over the primary's stage-s accumulators that
	// every round re-points. The first participant to reach its reduction
	// performs it, in the round's epoch.
	grads [][]runningSum // [step][stage]

	// Step commits: every OptStep op of a step arrives after folding its
	// stages, and the last to arrive commits the step (the optimizer
	// callback) and only then signals the step's OptStep ops. Every
	// next-step base op depends on its own device's OptStep, so none can
	// start during the commit, while refresh work runs beside it — the
	// round-internal step boundary.
	optIDs    [][]int        // [step] the step's OptStep ops
	arrived   []atomic.Int32 // [step] OptStep arrivals
	committed int            // steps whose optimizer callback completed

	failMu sync.Mutex // guards errs: first error per device wins
	errs   []error    // per device
	failed atomic.Bool
	abortC chan struct{} // closed on the round's first failure: unparks stalls and retry backoffs

	wd *watchdog // armed per-op deadlines, nil unless OpTimeout > 0

	// Degraded-mode record: set when a side-path failure past the retry
	// budget downgraded the round instead of aborting it (the first
	// failure's description is kept for StepResult.DegradedReason).
	degMu          sync.Mutex
	degraded       bool
	degradedReason string

	events [][]pipeline.Event // per device, measured wall-clock
	start  time.Time
}

// newRunState compiles the run state of the engine's current schedule.
func newRunState(e *Engine) *runState {
	nStages, r, perStep := e.cfg.Stages, e.roundLen, e.cfg.MicroBatches*e.cfg.Replicas
	nFlat := r * perStep
	st := &runState{
		e:         e,
		done:      make([]atomic.Int64, len(e.sched.Ops)),
		parked:    make([]atomic.Int64, e.sched.Devices),
		wake:      make([]chan struct{}, e.sched.Devices),
		stageIn:   mat2(nStages, nFlat),
		stageOut:  mat2(nStages, nFlat),
		gradOut:   mat2(nStages, nFlat),
		slot:      make([][]*actSlot, nStages),
		lossParts: make([][]pipemodel.Loss, r),
		grads:     make([][]runningSum, r),
		optIDs:    make([][]int, r),
		arrived:   make([]atomic.Int32, r),
		errs:      make([]error, e.sched.Devices),
	}
	for d := range st.wake {
		st.parked[d].Store(-1)
		st.wake[d] = make(chan struct{}, 1)
	}
	for s := range st.slot {
		st.slot[s] = make([]*actSlot, nFlat)
	}
	for j := 0; j < r; j++ {
		st.lossParts[j] = make([]pipemodel.Loss, perStep)
		st.grads[j] = make([]runningSum, nStages)
		for s, params := range e.sets[0].stageParams {
			ops := make([]transport.Reduction, len(params))
			sum := make([]*tensor.Matrix, len(params))
			for k, p := range params {
				ops[k].Name = fmt.Sprintf("g/%d/%d", s, k)
				sum[k] = &tensor.Matrix{Rows: p.Grad.Rows, Cols: p.Grad.Cols}
			}
			st.grads[j][s].init(perStep, ops, sum, &e.held.deltas)
		}
	}
	for _, op := range e.sched.Ops {
		if op.Kind == pipeline.OptStep {
			st.optIDs[op.Step] = append(st.optIDs[op.Step], op.ID)
		}
	}
	return st
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
// last round for carried ops (nil when no generation is pending). The
// pool-per-generation buffering is what keeps a new window's snapshots
// from clobbering factors still being folded.
func (st *runState) genPool(op *pipeline.Op) *kfacGenPool {
	if op.Generation > 0 {
		return st.pending
	}
	if st.refresh {
		return st.cur
	}
	return nil
}

// fail records a device failure and aborts the round: the failed flag
// stops further execution and satisfies every wait, every device is woken,
// and the abort channel cuts injected stalls and retry backoffs short. The
// first error per device wins — except that a real root cause replaces an
// errRoundAborted — so a watchdog's attributed stall report is not
// clobbered when the stalled op itself later returns.
func (st *runState) fail(d int, err error) {
	st.failMu.Lock()
	if st.errs[d] == nil || (errors.Is(st.errs[d], errRoundAborted) && !errors.Is(err, errRoundAborted)) {
		st.errs[d] = err
	}
	st.failMu.Unlock()
	if st.failed.Swap(true) {
		return
	}
	close(st.abortC)
	for d := range st.wake {
		st.poke(d)
	}
	// Poison the transport epoch so peers blocked in a collective this rank
	// will never complete fail promptly with the attributed reason (and
	// replay from checkpoint in lockstep) instead of hanging. No-op on the
	// loopback group.
	st.e.group.Abort(err)
}

// runRound executes the engine's schedule once — all RefreshSteps steps of
// it: each device's whole op order is one loop (deviceLoop), handed to a
// long-lived goroutine of the process-wide device pool (devloop.go) — no
// goroutine is spawned or torn down per round or per step. A loop waits on
// each op's dependencies (await), runs the op (runOp, resilience.go), then
// signals its completion. The round re-arms the engine's compiled run state
// rather than building one: the completion words need no clearing, since a
// word counts as done only once it holds the new round's number. Step
// boundaries are realized by the OptStep ops' completion, which the step's
// commit signals (the optimizer callback), not by joining the loops. On the
// first error the round is aborted — remaining ops are drained (walked
// without executing, every wait satisfied) so no peer can block on a
// dependency that will never arrive, the round's pooled buffers are
// released (rollback), and the error is surfaced after all devices joined,
// along with how many steps had already committed.
func (e *Engine) runRound(micro [][]*data.Batch, totals []pipemodel.Totals, refresh bool, cur, pending *kfacGenPool) ([]*StepResult, int, error) {
	st := e.run
	st.micro, st.totals, st.refresh, st.cur, st.pending = micro, totals, refresh, cur, pending
	st.round++
	clear(st.errs)
	clear(st.arrived)
	for _, step := range st.grads {
		for s, params := range e.sets[0].stageParams {
			for k, p := range params {
				step[s].sum[k].Data = p.Grad.Data
			}
		}
	}
	e.held.deltas.rearm()
	e.held.partials.rearm()
	st.committed = 0
	st.failed.Store(false)
	st.degraded, st.degradedReason = false, ""
	st.abortC = make(chan struct{})
	st.events = make([][]pipeline.Event, e.sched.Devices)
	for d := range st.events {
		st.events[d] = make([]pipeline.Event, 0, len(e.sched.Order[d]))
	}
	st.start = time.Now()
	st.wd = nil
	if e.cfg.OpTimeout > 0 {
		st.startWatchdog(e.cfg.OpTimeout)
	}

	st.runLoops()
	if st.wd != nil {
		st.wd.stopAndJoin()
	}
	// The root cause is the first device's error that is not an abort.
	var root error
	for _, err := range st.errs {
		if err != nil && (root == nil || errors.Is(root, errRoundAborted)) {
			root = err
		}
	}
	if root != nil {
		st.rollback()
		// Committed steps really happened (their optimizer updates stand),
		// so their results are returned alongside the error — the caller's
		// loss curve must not silently skip steps it can never re-run.
		return st.results(st.committed), st.committed, root
	}
	e.lastTimeline = st.timeline()
	return st.results(len(micro)), st.committed, nil
}

// deviceLoop walks device d's op order for the round: it waits on each op's
// dependencies, runs the op (runOp, resilience.go), then signals its
// completion — every op but an OptStep, which the step's commit signals.
// It runs on a pooled device goroutine (devloop.go).
func (st *runState) deviceLoop(d int) {
	e := st.e
	// opt is the OptStep this device arrived at, while refresh ops next in
	// its order run beside the step's commit (-1: none). The next base op
	// depends on it, so its dependency wait holds it through the commit.
	opt := -1
	for _, id := range e.sched.Order[d] {
		op := e.sched.Ops[id]
		for _, dep := range op.Deps {
			st.await(d, dep)
		}
		if !op.Kind.IsRefresh() {
			opt = -1
		}
		if !st.failed.Load() {
			if err := st.runOp(d, op); err != nil {
				// An op that ran while a commit was pending surfaces its
				// error once the commit resolved, so which steps committed
				// does not depend on timing. A commit that never came is
				// the cause, and whoever failed it has reported it.
				if opt >= 0 {
					st.await(d, opt)
				}
				if opt < 0 || st.done[opt].Load() == st.round {
					st.fail(d, fmt.Errorf("engine: device %d op %s: %w", d, op.Label(), err))
				}
			}
		}
		if op.Kind == pipeline.OptStep {
			opt = id
		} else {
			st.signal(id)
		}
	}
}

// results assembles the StepResults of the round's first upTo steps (all of
// them on success; the committed prefix on an abort).
func (st *runState) results(upTo int) []*StepResult {
	res := make([]*StepResult, upTo)
	for j := 0; j < upTo; j++ {
		res[j] = &StepResult{Refreshed: st.refresh, Degraded: st.degraded, DegradedReason: st.degradedReason}
		for _, part := range st.lossParts[j] {
			res[j].Loss.Add(part)
		}
	}
	return res
}

// rollback releases what an aborted round leaves behind. Committed steps
// stand — their optimizer updates already happened and cannot be undone
// without parameter snapshots. The primary's gradient accumulators are not
// restored: their contents after an abort are unspecified, and the next
// step's first fold starts them over from +0. The per-micro deltas still
// held — attached by a backward that failed, waiting for a lower one, or
// waiting for the reduction on a rank > 0 — go back to the pool; the
// running sums re-arm in the next round's epoch.
func (st *runState) rollback() {
	for _, step := range st.grads {
		for s := range step {
			step[s].scrub()
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
	for s := range st.slot {
		clear(st.slot[s])
	}
	for _, set := range st.e.sets {
		for _, stg := range set.stages {
			stg.freeAll()
		}
	}
}

// foldStages completes the gradient collective of every stage the op's
// device participates in — for the op's step — exactly once per (step,
// stage), routed through the engine's transport group: the first
// participant to reach a stage's running sum performs its reduction, so
// latecomers block until it finished (the rendezvous of the all-reduce) and
// find it done in the round's epoch (reduce). By then every backward of the
// stage has folded or is held (the op's dependency edges), so the
// reduction reads the prefix without waiting. The stages are the ones the
// schedule's placement says the device hosts: a chimera device syncs two,
// every other topology the op's own. Returns the bytes this call actually
// put on the wire (zero for a latecomer, and for a single-rank engine,
// whose folds completed inside the backwards).
func (st *runState) foldStages(op *pipeline.Op) (int64, error) {
	j := op.Step
	var bytes int64
	for _, s := range st.e.sched.Placement.Hosted[op.Device] {
		sum := &st.grads[j][s]
		nb, err := reduce(st.e.group, st.round, sum.ops, sum)
		bytes += nb
		if err != nil {
			return bytes, fmt.Errorf("gradient collective of stage %d step %d: %w", s, j, err)
		}
	}
	return bytes, nil
}

// arriveOptBarrier joins the op's step commit. Every device but the last
// to arrive returns at once and goes on with the refresh ops next in its
// order; the last arriver commits the step (commitStep) and then signals
// the step's OptStep ops, which every next-step base op depends on. So no
// base op of the next step can have started during the commit, and no op
// but refresh work runs beside it: the commit has exclusive access to all
// parameters and gradients. The K-FAC state is not the commit's; the
// schedule's edges order refresh work against the preconditions that read
// it. A failed commit signals nothing: the round aborts.
func (st *runState) arriveOptBarrier(op *pipeline.Op) error {
	j := op.Step
	if int(st.arrived[j].Add(1)) < len(st.optIDs[j]) {
		return nil
	}
	if err := st.commitStep(j); err != nil {
		return err
	}
	for _, id := range st.optIDs[j] {
		st.signal(id)
	}
	return nil
}

// commitStep finishes step j inside the round: it fires the caller's
// optimizer callback (the real parameter update — all folds and
// preconditions of the step are complete, because every device's OptStep
// has arrived). The update, written into the primary's storage in place,
// is what every module set computes with next; the accumulators keep the
// step's gradient until step j+1's fold overwrites them.
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
		// the parameters, which a run without a fault plan must not pay.
		if err := st.scanStepHealth(j); err != nil {
			return err
		}
	}
	if e.optApply != nil {
		if err := e.optApply(e.stepIndex + j); err != nil {
			return fmt.Errorf("optimizer callback at step %d: %w", e.stepIndex+j, err)
		}
	}
	st.committed = j + 1
	return nil
}

// exec dispatches one op. SyncCurvature completes its stage's factor sums
// over the group, all of them in one batch (syncCurvature); the
// inversions of the stage follow it. OptStep is where a step commits: it
// anchors the step's gradient collective and then rendezvouses with the
// step's other OptStep ops so the optimizer fires exactly once per step,
// inside the round.
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
		// step's commit sits. The recorded event measures the fold
		// and, on the committing device, the optimizer callback: a step's
		// commit is its longest OptStep event (CommitDurations).
		t0 := time.Since(st.start)
		bytes, err := st.foldStages(op)
		if err != nil {
			return err
		}
		if err := st.arriveOptBarrier(op); err != nil {
			return err
		}
		st.recordComm(d, op, t0, bytes)
		return nil
	case pipeline.SyncCurvature:
		// Like Curvature/Inversion, the exchange only happens for a live
		// generation (the round's own, or — Generation = 1 — a carried
		// one); otherwise the op is a silent no-op so the executed timeline
		// matches the work done.
		if pool := st.genPool(op); pool != nil {
			t0 := time.Since(st.start)
			bytes, err := st.e.syncCurvature(pool, op.Stage)
			if err != nil {
				return fmt.Errorf("factor exchange of stage %d: %w", op.Stage, err)
			}
			st.recordComm(d, op, t0, bytes)
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
// of rule 1. The micro-batch's parameter gradients accumulate straight into
// its pooled delta set, taken from the stage's running sum and zeroed (the
// delta is the contribution onto +0) before anything can fail, so an
// abort's scrub returns it; it then folds into the primary's accumulators
// as soon as the micro-batches before it have — on a rank that starts the
// transport chain; on any other it waits for the stage's reduction.
func (st *runState) backward(d int, op *pipeline.Op) error {
	s, gm := op.Stage, st.gmicro(op)
	params, sum := st.e.sets[st.e.setIndex(op)].stageParams[s], &st.grads[op.Step][s]
	for k, p := range params {
		sum.take(gm, k, p.Grad.Rows, p.Grad.Cols).Zero()
	}
	swapGrads(params, sum.parts[gm])
	t0 := time.Since(st.start)
	err := st.backprop(d, op)
	swapGrads(params, sum.parts[gm])
	if err != nil {
		return err
	}
	sum.arrive(st.round, gm, st.e.foldsEarly())
	st.record(d, op, t0)
	return nil
}

// backprop runs backward's work on the delta buffers attached for it.
func (st *runState) backprop(d int, op *pipeline.Op) error {
	s, m := op.Stage, st.flat(op)
	rep := st.e.sets[st.e.setIndex(op)]
	stg := rep.stages[s]
	mb := st.micro[op.Step][st.gmicro(op)]
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
	capture := st.refresh && op.Step == 0
	grad = sl.backward(grad, st.e.scratch[d], capture)
	if capture {
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
// edges; the factor's running sum is shared with the devices that compute
// its other micro-batches' partials, under its lock.
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
	// The partial Gram product U^T U goes into a pooled buffer, which
	// folds into the factor's running sum once the lower micro-batches'
	// have, and the statistics snapshot is recycled here — its only
	// consumer. The partial stays float64 even when the snapshot is a
	// float32 Snap: factor sums and EMAs accumulate across micro-batches and
	// rounds, where narrow accumulation would compound.
	sum := &pool.sums[s][op.Factor]
	stat.GramInto(sum.take(m, 0, stat.Cols(), stat.Cols()))
	if factorB {
		pool.gradsSnap[s][m][li] = tensor.Snap{}
	} else {
		pool.actsSnap[s][m][li] = tensor.Snap{}
	}
	stat.Release()
	sum.arrive(pool.epoch, m, st.e.foldsEarly())
	st.record(d, op, t0)
	return nil
}

// inversion finalizes the layer's factors on first touch of its generation
// (folding the sums of every replica's per-micro-batch products, in
// ascending global micro-batch order — reduced over the group by the
// stage's sync-curvature op where the group spans processes — into the
// shared preconditioner's EMA) and then refreshes the cached inverse of the
// op's factor — rule 2's unit of inversion work. The
// per-layer lock (instead of a stage-wide one) is what lets
// InversionParallel's round-robin sharding run different layers' inversions
// concurrently on different devices of the replica group. In a multi-step
// round the op may execute in a later step's bubble — or, carried under
// overlapped rounds, in the NEXT round's bubbles — and the generation pool
// keeps the fold exact either way: the fold marker and the loss scale
// belong to the pool, so a carried fold uses its own generation's
// statistics batch, and the cross-generation dependency edges order a
// layer's carried fold before the newer generation folds on top.
//
// A factor whose inversion is a chain (Op.Chain >= 1) runs one step of its
// blocked inverse per op: the first folds and starts the chain in the
// generation pool, the later ones continue it, and only the last takes the
// layer lock again to swap the refreshed inverse in. A chain whose earlier
// step degraded is gone, and its later steps do nothing: the stale inverse
// keeps serving.
func (st *runState) inversion(d int, op *pipeline.Op, pool *kfacGenPool) error {
	s := op.Stage
	stg := st.e.sets[op.Replica].stages[s]
	li, factorB, err := stg.layerOf(op.Factor)
	if err != nil {
		return err
	}
	fc := &pool.chains[s][op.Factor][op.Replica]
	if op.Chain > 1 {
		if !fc.Active() {
			return nil
		}
		if fc.Last() {
			st.e.layerMu[s][li].Lock()
			defer st.e.layerMu[s][li].Unlock()
		}
		t0 := time.Since(st.start)
		if err := fc.Step(); err != nil {
			return err
		}
		st.record(d, op, t0)
		return nil
	}
	st.e.layerMu[s][li].Lock()
	defer st.e.layerMu[s][li].Unlock()
	t0 := time.Since(st.start)
	if !pool.folded[s][li] {
		// The statistics — and therefore the loss scale — come from the
		// generation's own statistics batch (its collect round's first
		// step), not the folding round's.
		scale := st.e.sets[0].model.KFACLossScale(pool.totals)
		newA, newB, err := st.e.foldFactors(pool, s, li, scale*scale)
		if err != nil {
			return fmt.Errorf("factors of layer %d: %w", li, err)
		}
		// SetFactors copies into the preconditioner's own state (it never
		// retains the arguments), so the fold's pooled sums go straight
		// back to the workspace pool.
		err = st.e.kfacPre[s].SetFactors(li, newA, newB)
		pool.sums[s][2*li].scrub()
		pool.sums[s][2*li+1].scrub()
		if err != nil {
			return err
		}
		pool.folded[s][li] = true
	}
	if op.Chain == 0 {
		err = st.e.kfacPre[s].InvertFactor(li, factorB)
	} else if err = st.e.kfacPre[s].StartFactorChain(fc, li, factorB); err == nil {
		err = fc.Step()
	}
	if err != nil {
		return err
	}
	st.record(d, op, t0)
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
	// edges follow every fold into them, and the step's commit precedes
	// any next-step base op.
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
			MicroBatch: op.MicroBatch, Factor: op.Factor, Step: op.Step, Chain: op.Chain,
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
