package main

import (
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// replaySamples bounds how many executed rounds per arm are kept for the
// after-the-run replays (wait gap, model error): enough for a median,
// few enough that the retained timelines stay small.
const replaySamples = 16

// armAcc accumulates one traced arm's engine-level numbers, read from
// outside after each round: LastTimeline, StepResult, allocation counters.
type armAcc struct {
	steps      int
	perKind    map[pipeline.WorkKind]float64 // device-µs
	busy       float64                       // device-µs of base work
	refresh    float64                       // device-µs of refresh work in bubbles
	idle       float64                       // device-µs idle
	deviceTime float64                       // devices x makespan, µs
	overheadMS float64                       // round wall - timeline makespan
	ops        int
	retries    int
	degraded   int
	mallocs    uint64
	allocBytes uint64
	poolTasks  uint64
	kept       []*pipeline.Timeline
	seen       int

	allocs0 [2]uint64
	tasks0  uint64
}

// heapAllocs reads the process's cumulative heap allocation counters
// (objects, bytes). runtime/metrics, not runtime.ReadMemStats: the latter
// stops the world, and a stop-the-world right before a round restarts both
// Ps and measurably changes the round it precedes (tiny_ring2 ran 18%
// faster after one) — the collector must not move what it measures.
func heapAllocs() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var out [2]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// collector is the traced run's observer.
type collector struct {
	o    runOpts
	st   *runState
	log  *spanLog
	accs map[*arm]*armAcc
	// stride: every stride-th round's timeline is kept for the replays.
	stride int
	// poolAt is tensor.PoolLive at the end of every block, once all arms
	// have run it (see finish).
	poolAt []int
}

func newCollector(o runOpts, st *runState, log *spanLog) *collector {
	tensor.SetPoolAudit(true)
	rounds := o.budget() / o.w.k
	c := &collector{o: o, st: st, log: log, accs: map[*arm]*armAcc{},
		stride: (rounds+replaySamples-1)/replaySamples | 1}
	for _, a := range []*arm{st.vanilla, st.pf} {
		c.accs[a] = &armAcc{perKind: map[pipeline.WorkKind]float64{}}
	}
	return c
}

func (c *collector) before(a *arm) {
	acc := c.accs[a]
	if acc == nil {
		return
	}
	acc.allocs0 = heapAllocs()
	acc.tasks0 = tensor.PoolTasksExecuted()
}

func (c *collector) after(a *arm, steps []*engine.StepResult, wall time.Duration) {
	acc := c.accs[a]
	if acc == nil {
		return
	}
	allocs1 := heapAllocs()
	acc.mallocs += allocs1[0] - acc.allocs0[0]
	acc.allocBytes += allocs1[1] - acc.allocs0[1]
	acc.poolTasks += tensor.PoolTasksExecuted() - acc.tasks0
	acc.steps += len(steps)
	for _, s := range steps {
		if s.Degraded {
			acc.degraded++
		}
	}
	tl := a.ranks[0].eng.LastTimeline()
	for kind, us := range trace.Summarize(tl).PerKind {
		acc.perKind[kind] += float64(us)
	}
	span := float64(tl.Makespan)
	for _, u := range trace.BubbleUtilization(tl) {
		acc.busy += u.Busy * span
		acc.refresh += u.RefreshFilled * span
		acc.idle += u.Idle * span
	}
	acc.deviceTime += float64(tl.Devices) * span
	acc.overheadMS += float64(wall)/float64(time.Millisecond) - span/1000
	for d := range tl.Events {
		acc.ops += len(tl.Events[d])
		for _, ev := range tl.Events[d] {
			acc.retries += ev.Retries
		}
	}
	// Keep an evenly spread sample of rounds for the replays. The stride is
	// odd so it cannot lock onto the refresh cadence (every 4th round on
	// the tiny workloads) and keep only refresh rounds, or none.
	if acc.seen%c.stride == 0 && len(acc.kept) < replaySamples {
		acc.kept = append(acc.kept, tl)
	}
	acc.seen++
}

func (c *collector) blockDone() { c.poolAt = append(c.poolAt, tensor.PoolLive()) }

// replayMakespan simulates the engine's own schedule with every op's
// duration replaced by what that op measured in tl (recomputation folded
// back into its backward): the makespan the op list explains, with no
// dispatch, lock or channel waiting in it.
func replayMakespan(sched *pipeline.Schedule, tl *pipeline.Timeline) (hardware.Microseconds, error) {
	dur := make([]hardware.Microseconds, len(sched.Ops))
	for d := range tl.Events {
		var recompute hardware.Microseconds
		for _, ev := range tl.Events[d] {
			op := ev.Op
			if op.Kind == pipeline.Recompute {
				recompute += ev.Duration() // belongs to the backward that follows on this device
				continue
			}
			if op.ID < 0 || op.ID >= len(sched.Ops) || sched.Ops[op.ID] != op {
				continue // marker events (degraded, membership) are not schedule ops
			}
			dur[op.ID] += ev.Duration()
			if op.Kind == pipeline.Backward {
				dur[op.ID] += recompute
				recompute = 0
			}
		}
	}
	cp := *sched
	cp.Ops = make([]*pipeline.Op, len(sched.Ops))
	for i, op := range sched.Ops {
		o := *op
		o.Duration = dur[i]
		if o.Duration < 1 {
			o.Duration = 1 // ops the round skipped (refresh work off-cadence); Validate wants > 0
		}
		cp.Ops[i] = &o
	}
	sim, err := pipeline.Run(&cp)
	if err != nil {
		return 0, err
	}
	return sim.Makespan, nil
}

func ms(us float64) float64 { return us / 1000 }

// finish turns the accumulators, the span log and the probes into the
// per-layer metrics.
func (c *collector) finish(res *runResult) {
	w, st := c.o.w, c.st
	pf, va := c.accs[st.pf], c.accs[st.vanilla]
	steps := float64(pf.steps)
	eng := st.pf.ranks[0].eng

	// engine: op-kind device time, shares, overhead, tails, allocations.
	for name, kind := range map[string]pipeline.WorkKind{
		"engine.forward_ms": pipeline.Forward, "engine.backward_ms": pipeline.Backward,
		"engine.recompute_ms": pipeline.Recompute, "engine.curvature_ms": pipeline.Curvature,
		"engine.inversion_ms": pipeline.Inversion, "engine.precondition_ms": pipeline.Precondition,
		"engine.sync_grad_ms": pipeline.SyncGrad, "engine.sync_curvature_ms": pipeline.SyncCurvature,
		"engine.opt_step_ms": pipeline.OptStep,
	} {
		res.set(name, ms(pf.perKind[kind])/steps)
	}
	res.set("engine.busy_share", pf.busy/pf.deviceTime)
	res.set("engine.refresh_filled_share", pf.refresh/pf.deviceTime)
	res.set("engine.idle_share", pf.idle/pf.deviceTime)
	res.set("engine.idle_share.vanilla", va.idle/va.deviceTime)
	res.set("engine.round_overhead_ms", pf.overheadMS/steps)
	// The round's self time: wall time of TrainRound during which no device
	// was inside a decorated call (embed, head, optimizer, collective), so
	// blocks and the engine's own dispatch are what is left.
	res.set("engine.round_self_ms", ms(float64(c.log.selfTotal("engine.round", st.pf.name).Microseconds()))/steps)
	res.set("engine.step_ms_p50", median(st.pf.stepMS))
	res.set("engine.step_ms_p50.vanilla", median(st.vanilla.stepMS))
	res.set("engine.step_ms_p90", percentile(st.pf.stepMS, 90))
	res.set("engine.step_ms_p90.vanilla", percentile(st.vanilla.stepMS, 90))
	res.Samples["engine.step_ms_p90"] = len(st.pf.stepMS)
	res.set("engine.allocs_per_step", float64(pf.mallocs)/steps)
	res.set("engine.alloc_bytes_per_step", float64(pf.allocBytes)/steps)
	res.set("engine.ops_per_step", float64(pf.ops)/steps)
	res.set("engine.retries", float64(pf.retries))
	res.set("engine.degraded_steps", float64(pf.degraded))

	// The ladder must close: op-kind time plus idle is devices x makespan.
	var kinds float64
	for _, us := range pf.perKind {
		kinds += us
	}
	if gap := math.Abs(kinds+pf.idle-pf.deviceTime) / pf.deviceTime; gap > 0.02 {
		res.violate("engine ladder: op-kind time + idle is %.1f%% off devices x makespan", 100*gap)
	}

	// wait gap: what the executed makespan has beyond the replay of the
	// same ops at their measured durations.
	var gaps []float64
	for _, tl := range pf.kept {
		sim, err := replayMakespan(eng.Schedule(), tl)
		if err != nil {
			res.violate("engine.wait_gap_share: replaying the executed schedule: %v", err)
			break
		}
		gaps = append(gaps, float64(tl.Makespan-sim)/float64(tl.Makespan))
	}
	res.set("engine.wait_gap_share", median(gaps))
	res.Samples["engine.wait_gap_share"] = len(gaps)

	c.scheduleMetrics(res, pf, median(st.pf.stepMS))

	// bert / data / optim / transport: spans.
	perStep := func(name, arm string) (float64, float64) {
		d, n := c.log.total(name, arm)
		return float64(d) / float64(time.Millisecond) / steps, float64(n) / steps
	}
	embedMS, embedN := perStep("bert.embed", st.pf.name)
	headMS, headN := perStep("bert.head", st.pf.name)
	res.set("bert.embed_ms", embedMS)
	res.set("bert.head_ms", headMS)
	res.set("bert.calls_per_step", embedN+headN)
	dataMS, _ := perStep("data.make_batch", "")
	res.set("data.make_batch_ms", dataMS)
	optMS, _ := perStep("optim.step", st.pf.name)
	res.set("optim.step_ms", optMS)
	var params int
	for _, p := range st.pf.ranks[0].model.Params() {
		params += p.NumElements()
	}
	res.set("optim.params", float64(params))
	collMS, collN := perStep("transport.collective", st.pf.name)
	res.set("transport.collective_ms", collMS)
	res.set("transport.calls_per_step", collN)
	var wire, failed float64
	if r := st.pf.ranks[0].ring; r != nil {
		wire, failed = float64(r.bytes.Load())/steps, float64(r.failed.Load())
	}
	res.set("transport.bytes_per_step", wire)
	res.set("transport.failed_calls", failed)

	// kfac counters: the engine's own preconditioners.
	var age, refreshes int
	for s := 0; s < eng.Stages(); s++ {
		pre := eng.KFACStates(s)
		if a := pre.MaxInverseAge(); a > age {
			age = a
		}
		for _, ls := range pre.States() {
			if ls.InverseUpdates > refreshes {
				refreshes = ls.InverseUpdates
			}
		}
	}
	res.set("kfac.max_inverse_age", float64(age))
	res.set("kfac.refreshes", float64(refreshes))

	res.set("tensor.pool_tasks_per_step", float64(pf.poolTasks)/steps)
	res.set("trace.overhead_share", median(st.pf.stepMS)/median(st.plain.stepMS)-1)
	res.Samples["trace.overhead_share"] = len(st.pf.stepMS)

	// Nothing the pool handed out during training may stay out. Without
	// overlapped rounds that means zero between rounds. With them, every
	// engine keeps a carried generation's statistics snapshots checked out
	// across the round boundary by design, so the count is a constant, not
	// zero: it must not have grown since the middle block (block ends are
	// the comparable points: every arm has run the same rounds).
	live := tensor.PoolLive()
	tensor.SetPoolAudit(false)
	res.set("tensor.pool_live", float64(live))
	mid := c.poolAt[(len(c.poolAt)-1)/2]
	switch {
	case !w.overlap && live != 0:
		res.violate("tensor.pool_live = %d after the traced run, want 0", live)
	case live > mid:
		res.violate("tensor.pool_live grew from %d at the middle block to %d: pooled buffers leak", mid, live)
	}

	probe(res, w, c.o.quick)
}

// scheduleMetrics builds and simulates the workload's own schedule under
// costs measured from a kept refresh round, and compares the model's step
// time with the measured one.
func (c *collector) scheduleMetrics(res *runResult, pf *armAcc, stepP50 float64) {
	w := c.o.w
	eng := c.st.pf.ranks[0].eng
	// The richest kept round: the one with the most refresh events, so
	// curvature and inversion costs are measured, not defaulted.
	var tl *pipeline.Timeline
	best := -1
	for _, k := range pf.kept {
		n := len(k.EventsOfKind(pipeline.Inversion)) + len(k.EventsOfKind(pipeline.Curvature))
		if n > best {
			best, tl = n, k
		}
	}
	cfg := schedule.Config{
		Method: w.method, Stages: stages, MicroBatches: w.micro,
		Costs:        engine.MeasuredCosts(tl, 2*len(eng.StageLayers(0))),
		RefreshSteps: w.k, Overlap: w.overlap, CarryDepth: eng.CarryDepth(),
	}
	timeIt := func(f func() error) float64 {
		t0 := time.Now()
		if err := f(); err != nil {
			res.violate("schedule probe: %v", err)
		}
		return float64(time.Since(t0)) / float64(time.Millisecond)
	}
	var sched *pipeline.Schedule
	res.set("schedule.executable_ms", timeIt(func() (err error) {
		sched, err = schedule.Executable(cfg)
		return err
	}))
	var asg *schedule.Result
	res.set("schedule.assign_ms", timeIt(func() (err error) {
		asg, err = schedule.Assign(cfg)
		return err
	}))
	if sched == nil || asg == nil {
		for _, n := range []string{"pipeline.sim_ms", "pipeline.ops", "schedule.model_err", "schedule.modeled_overhead"} {
			res.set(n, 0)
		}
		return
	}
	res.set("pipeline.sim_ms", timeIt(func() error {
		_, err := pipeline.Run(sched)
		return err
	}))
	res.set("pipeline.ops", float64(len(sched.Ops)))
	res.set("schedule.model_err", math.Abs(ms(float64(asg.StepTime))-stepP50)/stepP50)
	res.set("schedule.modeled_overhead", float64(asg.StepTime)/float64(asg.VanillaStepTime))
}
