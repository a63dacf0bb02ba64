// Package engine executes real pipeline-parallel training of any stageable
// model (pipemodel.Model — implemented by both internal/bert and
// internal/gpt) under a schedule-driven executor: the same executable
// op-list form that internal/pipeline's builders and internal/schedule's
// PipeFisher assignment produce for the timing simulator is *executed for
// real* here. Each device runs as its own goroutine walking its per-device
// op order; op dependency edges are realized as one completion word per op
// and one wait on it, a step's commit is its OptStep ops' completion,
// micro-batch activations and error signals flow between stages exactly
// along the Forward/Backward edges (the P2P sends/recvs of Figure 2(iii)),
// every stage keeps the activations of the micro-batches it holds in flight
// (the paper's configuration without "R": no backward re-runs a forward),
// and — with K-FAC enabled — the curvature and inversion work runs in the
// very slots the PipeFisher packer placed it: inside the pipeline bubbles
// (§3.1), with per-stage factor storage (§3(i)) and factor-granular
// inversion parallelism (§3(ii)).
//
// # Data parallelism
//
// With Config.Replicas = W > 1 the engine executes the paper's hybrid
// configuration — pipeline stages × data-parallel replicas — on a
// (replica, stage) device topology: replica r runs its own instance of the
// model's modules (pipemodel.Model.Replicate) over the primary's parameter
// values, processes its own MicroBatches micro-batches of the step's batch,
// and joins the per-stage SyncGrad/SyncCurvature collectives. The
// collectives are realized in-process (collective.go) with a fixed
// reduction order at micro-batch granularity: every backward accumulates
// its micro-batch's gradient contribution into pooled buffers of its own,
// and the stage's SyncGrad folds the contributions into the primary
// replica's accumulators in ascending global micro-batch order. Because
// that order depends on neither the schedule, the replica count, nor the
// worker count, gradients are bit-identical across all of them. K-FAC
// curvature partials are indexed the same way, so factors — and therefore
// inverses and preconditioned gradients — inherit the guarantee, and
// InversionParallel shards each stage's inversion units round-robin across
// the stage's replica group (each replica inverts its shard; the shared
// per-stage preconditioner makes the broadcast implicit).
//
// # Module sets and ownership
//
// A module set is one instance of the model's modules (embedding, blocks,
// head) with, per stage, one activation slot for each micro-batch the
// schedule keeps in flight there (stage.go; the backward-only scratch
// belongs to the device, not the set). Every replica has one; under Chimera
// every replica has two, one per pipeline direction. There is one parameter
// copy per process: every set but the primary has its Value.Data alias the
// primary's storage, so all sets read the same weights and nothing is
// broadcast between them, and holds no gradient storage between ops — a
// backward attaches zeroed pooled delta buffers as the set's accumulators
// for the op. Ownership contract: every (replica,
// pipeline, stage) of the schedule maps to exactly one device (checked
// when the schedule is built), so one device goroutine drives each module
// set's stage and no lock guards the modules. Weights are only written
// by a step's commit, while no device runs anything but K-FAC refresh work
// (which reads no parameter); gradients leave a module set only as
// per-micro-batch deltas, folded into the primary in the fixed collective
// order above.
//
// Because the simulator and this executor share one schedule
// representation, any schedule the simulator can lay out — GPipe, 1F1B,
// Chimera, their data-parallel W > 1 forms, or their PipeFisher-augmented
// forms — trains for real, and a step's executed timeline (LastTimeline)
// can be rendered side by side with the simulated one.
package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/schedule"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// AdaptiveRefreshSteps, assigned to Config.RefreshSteps, asks the engine to
// derive the round length K from its packing costs — the number of pipeline
// steps one refresh needs under the PipeFisher packing rules
// (schedule.AdaptiveRoundLength) — instead of requiring a hand-picked value.
// Until K-FAC is enabled the engine runs one-step rounds. EnableKFAC derives
// K at the micro-batch shape the engine has priced (one sequence per
// micro-batch before any round ran); a round at another shape re-prices the
// packing, and once it committed K is re-derived at that shape. Query
// RoundSteps before every round.
const AdaptiveRefreshSteps = -1

// Config selects the pipeline schedule the engine executes.
type Config struct {
	// Method is the schedule family: "gpipe" (default), "1f1b", "chimera".
	Method string
	// Stages is the pipeline depth; the model's blocks are partitioned into
	// this many contiguous stages (embedding on stage 0, head on the last).
	Stages int
	// MicroBatches is the number of micro-batches per replica per training
	// step; one step consumes Replicas*MicroBatches micro-batches.
	MicroBatches int
	// Replicas is the data-parallel width W (0 or 1 disables data
	// parallelism). Each replica beyond the first runs its own instance of
	// the model's modules (built via pipemodel.Model.Replicate) over the
	// primary's parameter values — an alias, not a copy, so nothing is
	// broadcast between them — and its gradient contributions join the
	// per-stage SyncGrad collective.
	Replicas int
	// Transport is the collective group every reduction routes through
	// (nil = the in-process transport.Loopback). A multi-rank group — e.g.
	// a transport.Ring over sockets — extends data parallelism across
	// processes: the global width is group size x Replicas, every rank
	// receives the full global batch and trains its contiguous slice of
	// each step's micro-batches, and gradients / K-FAC factors / losses
	// fold across ranks in the same fixed ascending-global-micro order as
	// in-process, so results stay bit-identical to a single-process run of
	// the same global width. All ranks must build identical models and
	// engines (verified by a shape handshake at construction) and feed
	// identical batches.
	Transport transport.Group
	// InversionParallel shards each stage's K-FAC inversion units
	// round-robin across the stage's device group — the replica group for
	// gpipe/1f1b, the bidirectional pairs for chimera — instead of every
	// replica duplicating the whole stage's inversions.
	InversionParallel bool
	// RefreshSteps is the round length K: the executable schedule spans K
	// consecutive pipeline steps and — with K-FAC enabled — one
	// curvature/inversion refresh is packed into the bubbles of the whole
	// K-step window (the paper's multi-step refresh rounds). The engine
	// executes rounds atomically: TrainRound consumes K batches, fires the
	// optimizer callback (SetOptimizer) once per step at the round-internal
	// step commits, and each step preconditions with the freshest inverses
	// completed by that step. 0 or 1 is the degenerate one-step round
	// (TrainStep's historical behavior); AdaptiveRefreshSteps derives K from
	// the modeled refresh work at the rounds' micro-batch shape.
	RefreshSteps int
	// OverlapRounds lets consecutive refresh windows overlap: refresh work
	// that does not fit its own window's bubbles is *carried* into the next
	// round's early bubbles as generation-lagged ops (schedule.Config.
	// Overlap) instead of serializing before the window's tail. The engine
	// executes carried ops against double-buffered, generation-tagged
	// statistics pools, so a new window's snapshots never clobber factors
	// of the previous generation still being folded or inverted; each
	// step's precondition keeps the §3.1 freshest-completed rule across the
	// window boundary. When the refresh fits its window, overlapped
	// execution is bit-identical to serialized rounds.
	OverlapRounds bool
	// FaultPlan, when non-nil, injects the plan's deterministic faults —
	// op failures, stalls, collective drops, NaN corruption — at their
	// named (step, device, op-kind) points (package faults). Setting it,
	// OpTimeout or OpRetries makes the engine fault tolerant: a refresh op
	// that fails past its retries degrades the round instead of aborting
	// it (resilience.go). Every op runs through the same path either way.
	FaultPlan *faults.Plan
	// OpTimeout, when positive, arms a watchdog over every executing op: an
	// op that has not completed within the deadline is treated as a hung
	// device and the round aborts with an error naming the stalled device
	// and op. The watchdog converts silent hangs into attributed failures;
	// it cannot preempt a genuinely stuck kernel (goroutines are not
	// killable), so the round's join still waits for the op to return —
	// injected stalls are abort-aware and return promptly.
	OpTimeout time.Duration
	// OpRetries bounds retry-with-backoff for transient failures of
	// side-path ops — curvature capture, inversion, sync-curvature: work
	// whose failure the K-FAC staleness discipline (§3.1) can absorb. A
	// side-path op is retried up to OpRetries times, 2 ms apart and the
	// delay doubled per attempt, before the round degrades (stale inverses,
	// then unpreconditioned SGD). Base-path ops (forward, backward,
	// gradient collectives, optimizer steps) never retry: their failure
	// aborts the round.
	OpRetries int
	// Checkpoint enables round checkpoint/replay: TrainRound snapshots
	// parameters, attached optimizer state (AttachOptimizerState), the
	// K-FAC state and the refresh phase at every round start —
	// equivalently, at the previous round's commit — into retained buffers
	// (zero steady-state allocations). After an aborted round,
	// RestoreCheckpoint rewinds to that snapshot so replaying the same
	// batches reproduces the fault-free run bit-identically.
	Checkpoint bool
}

func (c Config) normalize() (Config, error) {
	if c.Method == "" {
		c.Method = "gpipe"
	}
	if c.Stages <= 0 {
		return c, fmt.Errorf("engine: Stages must be positive, got %d", c.Stages)
	}
	if c.MicroBatches <= 0 {
		return c, fmt.Errorf("engine: MicroBatches must be positive, got %d", c.MicroBatches)
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("engine: Replicas must be non-negative, got %d", c.Replicas)
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.RefreshSteps < 0 && c.RefreshSteps != AdaptiveRefreshSteps {
		return c, fmt.Errorf("engine: RefreshSteps must be non-negative or AdaptiveRefreshSteps, got %d", c.RefreshSteps)
	}
	if c.RefreshSteps == 0 {
		c.RefreshSteps = 1
	}
	if c.OpTimeout < 0 {
		return c, fmt.Errorf("engine: OpTimeout must be non-negative, got %v", c.OpTimeout)
	}
	if c.OpRetries < 0 {
		return c, fmt.Errorf("engine: OpRetries must be non-negative, got %d", c.OpRetries)
	}
	// Whether the family exists and can lay this topology out is pipeline's
	// to say; asked here, before any collective runs.
	if err := pipeline.Feasible(c.Method, c.Stages, c.MicroBatches); err != nil {
		return c, fmt.Errorf("engine: %w", err)
	}
	return c, nil
}

// moduleSet is one instance of the model's modules, partitioned into
// stages: a data-parallel replica, or the second (up-pipeline) set a
// Chimera replica runs beside its first. Set 0 wraps the caller's model
// (the primary — the parameters the caller's optimizer updates); the
// others are engine-owned clones that compute with set 0's parameter
// values and hold no gradient storage between ops (cloneSet).
type moduleSet struct {
	model  pipemodel.Model
	stages []*stage
	// params caches model.Params() in the model's canonical order.
	params []*nn.Param
	// stageParams[s] lists the parameters stage s's ops touch — embedding
	// params first (stage 0 only), then the stage's block params, then
	// head params (last stage only) — in an order shared by all sets, so
	// per-micro-batch gradient deltas align across the group.
	stageParams [][]*nn.Param
}

// Engine drives pipeline-parallel training steps of a stageable model.
type Engine struct {
	cfg Config
	// sets holds the module sets. sets[r], r < Replicas, is data-parallel
	// replica r (sets[0] the primary). Under a family with a second
	// pipeline (chimera) Replicas more follow: sets[Replicas+r] is replica
	// r's up-pipeline set. Every set but the primary computes with the
	// primary's parameter storage and owns only its activation slots
	// (cloneSet). An op finds its set with setIndex; the schedule
	// gives every (replica, pipeline, stage) one device — building its
	// pipeline.Placement proves it — so a set's stage is only ever touched by
	// one device goroutine and needs no lock.
	sets []*moduleSet
	// layerMu[s][li] guards the primary preconditioner's per-layer factor
	// state — the curvature fold (SetFactors) and inversion refreshes — so
	// different devices of a stage's replica group can invert different
	// layers concurrently under InversionParallel.
	layerMu [][]sync.Mutex

	// group is the collective transport every reduction routes through:
	// Config.Transport, or the zero-cost in-process Loopback when none was
	// configured (collective.go). multiRank caches group.Size() > 1 — the
	// flag that turns on the cross-rank batch slicing, the per-step loss
	// collective, and the initial parameter broadcast.
	group     transport.Group
	multiRank bool
	// lossSync is the per-step loss collective's retained scratch
	// (multi-rank engines only, collective.go).
	lossSync lossSync
	// held is the folds' byte ledger (collective.go): what the gradient
	// delta sets and the K-FAC partials and sums hold, and its high-water
	// mark per round (FoldBytes).
	held heldBytes

	sched *pipeline.Schedule
	// scratch[d] is device d's backward scratch, one per block position of a
	// stage: what only a backward writes lives here, not in the activation
	// slots, and is attached to whichever slot the device back-propagates
	// next (sizeSlots).
	scratch [][]*nn.BlockScratch

	// workers is the intra-op kernel worker budget (the tensor pool's size)
	// and opShare each device goroutine's per-kernel cap (workers /
	// devices, min 1) — fair sharing of the pool across concurrent stages.
	workers int
	opShare int

	// roundLen is the resolved round length K: Config.RefreshSteps, or —
	// with AdaptiveRefreshSteps — the refresh window derived from the
	// packing costs (1 until EnableKFAC). adaptPending marks an adaptive
	// length derived at a micro-batch shape the rounds no longer run: the
	// next round to commit re-derives it (adaptRoundLength).
	roundLen     int
	adaptPending bool

	kfacPre      []*kfac.Preconditioner // per stage, nil until EnableKFAC
	kfacOpts     kfac.Options
	refreshEvery int
	stepIndex    int // completed (committed) training steps
	roundIndex   int // rounds with at least one committed step: the refresh cadence counter
	// refreshPending is set when a refresh round aborts mid-window: some
	// layers may have folded fresh factors or swapped inverses while
	// others kept the previous generation, so the next round re-runs the
	// refresh instead of preconditioning on mixed-generation state until
	// the cadence comes around again.
	refreshPending bool

	// kfacPools double-buffers the statistics generations of the refresh
	// pipeline (allocated at EnableKFAC): a collect round writes pool
	// kfacGen%2 while the carried ops of the previous generation —
	// overlapped rounds only — drain the other. carried is that previous
	// generation's pool while its carried ops have not executed yet (nil
	// when the last round did not collect, or the schedule carries
	// nothing): carry is one round, so it retires — is scrubbed and becomes
	// reusable — at the end of the round after its collection. carries
	// reports whether the executable schedule has carried
	// (Generation 1) ops at all.
	kfacPools [2]*kfacGenPool
	carried   *kfacGenPool
	carries   bool
	kfacGen   int

	// shape is the transformer shape of the model the engine holds, and
	// priced the stage costs shapeCosts derives from it at microSeqs
	// sequences per micro-batch — what the schedule is packed with, re-priced
	// when a round's micro-batches have another shape (costs.go).
	shape     arch.Transformer
	microSeqs int
	priced    pipeline.StageCosts

	// optApply, when set (SetOptimizer), is the caller's parameter update,
	// fired exactly once per training step by the step's commit (after the
	// step's gradients are fully reduced and preconditioned, before any
	// next-step base op starts). Required for
	// RefreshSteps > 1; optional for one-step rounds, where the caller may
	// instead apply the optimizer between TrainStep calls as before.
	optApply func(step int) error

	// run is the run state compiled for sched (exec.go), re-armed by every
	// round.
	run          *runState
	lastTimeline *pipeline.Timeline

	// failOp, when set (tests only), is consulted before every op; a
	// non-nil return aborts the step as if the op itself had failed.
	failOp func(op *pipeline.Op) error

	// inj evaluates Config.FaultPlan at every op when non-nil.
	inj *faults.Injector
	// memberView counts the elastic membership changes this engine has lived
	// through (0 until the first Reconnect); executed timeline events are
	// stamped with it, and memberChanged marks the first round after a
	// change so its timeline carries a Membership marker span (elastic.go).
	memberView    int
	memberChanged bool
	// killHook, when set (SetKillHook), fires when the fault injector
	// delivers a Kill outcome on this rank — before the op's failure aborts
	// the round. The CLI exits the process here; tests sever the transport.
	killHook func()
	// optState is the optimizer state attached via AttachOptimizerState,
	// snapshotted and restored by the round checkpoint.
	optState OptimizerState
	// ckpt is the retained round checkpoint (checkpoint.go); its buffers
	// are reused across saves so steady-state checkpointing allocates
	// nothing.
	ckpt roundCheckpoint
}

// NewWithConfig builds an engine executing the configured schedule. The
// number of blocks must be divisible by the stage count, and each
// TrainStep's batch size must be divisible by Replicas*MicroBatches.
func NewWithConfig(model pipemodel.Model, cfg Config) (*Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if len(model.PipelineBlocks()) == 0 {
		return nil, fmt.Errorf("engine: model has no pipeline blocks")
	}
	e := &Engine{cfg: cfg, roundLen: cfg.RefreshSteps}
	if cfg.RefreshSteps == AdaptiveRefreshSteps {
		e.roundLen = 1 // resolved from measured work at EnableKFAC
	}
	prim, err := buildModuleSet(model, cfg)
	if err != nil {
		return nil, err
	}
	// Replicas x the family's pipelines module sets: the primary, then every
	// secondary replica and — under Chimera — each replica's up set.
	e.sets = append(e.sets, prim)
	for i := 1; i < cfg.Replicas*pipeline.Pipelines(cfg.Method); i++ {
		set, err := e.cloneSet()
		if err != nil {
			return nil, fmt.Errorf("engine: module set %d: %w", i, err)
		}
		e.sets = append(e.sets, set)
	}
	e.group = cfg.Transport
	if e.group == nil {
		e.group = transport.Loopback{}
	}
	e.multiRank = e.group.Size() > 1
	// The fault plan is projected onto this member's transport rank, so a
	// rank-targeted fault (kill:rank=2) costs every other rank nothing —
	// their injector stays nil and is never consulted.
	e.inj = faults.NewInjector(cfg.FaultPlan.ForRank(e.group.Rank()))
	if e.multiRank {
		if err := e.syncInitialParams(); err != nil {
			return nil, err
		}
	}
	if e.shape, err = modelArch(prim); err != nil {
		return nil, err
	}
	// Until a round shows the micro-batch shape, price one sequence each.
	if err := e.price(1); err != nil {
		return nil, err
	}
	if err := e.rebuildSchedule(); err != nil {
		return nil, err
	}
	return e, nil
}

// cloneSet builds an engine-owned module set from a fresh Replicate() of
// the primary's model. Its parameter Value.Data aliases the primary's
// storage (the modules hold the *Matrix headers re-pointed here), so an
// optimizer update or a checkpoint restore written in place reaches every
// set and no weight is ever copied between them; its Grad.Data is nil, since
// a backward accumulates into the pooled delta buffers it attaches for the
// op (runState.backward). What the set owns is what two running devices
// must not share: its modules' activation slots.
func (e *Engine) cloneSet() (*moduleSet, error) {
	prim := e.sets[0]
	clone, err := prim.model.Replicate()
	if err != nil {
		return nil, fmt.Errorf("replicating model: %w", err)
	}
	set, err := buildModuleSet(clone, e.cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.ShareParamValues(set.params, prim.params); err != nil {
		return nil, fmt.Errorf("replica differs from the primary (Replicate must preserve structure): %w", err)
	}
	for _, p := range set.params {
		p.Grad.Data = nil
	}
	return set, nil
}

// setIndex locates the module set a forward or backward op runs on:
// replica op.Replica's down set, or — op.Pipeline 1, Chimera only — its up
// set.
func (e *Engine) setIndex(op *pipeline.Op) int { return e.setOf(op.Replica, op.Pipeline) }

// setOf is the index in e.sets of a replica's module set for one pipeline.
func (e *Engine) setOf(replica, pipe int) int { return pipe*e.cfg.Replicas + replica }

// buildModuleSet partitions one model copy into stages and derives the
// per-stage parameter lists the gradient collective reduces over.
func buildModuleSet(model pipemodel.Model, cfg Config) (*moduleSet, error) {
	blocks := model.PipelineBlocks()
	if len(blocks)%cfg.Stages != 0 {
		return nil, fmt.Errorf("engine: %d blocks not divisible by %d stages", len(blocks), cfg.Stages)
	}
	rep := &moduleSet{model: model, params: model.Params()}
	per := len(blocks) / cfg.Stages
	for s := 0; s < cfg.Stages; s++ {
		st := &stage{
			index:  s,
			first:  s == 0,
			last:   s == cfg.Stages-1,
			blocks: blocks[s*per : (s+1)*per],
		}
		st.slots = []*actSlot{newActSlot(st.blocks)}
		st.layers = st.slots[0].layers
		st.freeAll()
		rep.stages = append(rep.stages, st)

		var params []*nn.Param
		if st.first {
			params = append(params, model.EmbedParams()...)
		}
		for _, b := range st.blocks {
			params = append(params, b.Params()...)
		}
		if st.last {
			params = append(params, model.HeadParams()...)
		}
		rep.stageParams = append(rep.stageParams, params)
	}
	return rep, nil
}

// rebuildSchedule derives the executable round schedule for the current
// configuration — RefreshSteps consecutive steps, one step being the
// degenerate round: the plain pipeline (with its per-step optimizer tail —
// the anchor ops for the gradient collective and the step commit) when
// K-FAC is off, the PipeFisher-packed form — one refresh spread over the
// whole window's bubbles — when it is on. The schedule is validated by
// running it through the timing simulator, which proves the per-device
// orders and dependency edges cannot deadlock the executor, and its run
// state is compiled here, once (newRunState).
func (e *Engine) rebuildSchedule() error {
	var sched *pipeline.Schedule
	var err error
	if e.kfacPre != nil {
		sched, err = schedule.Executable(e.ScheduleConfig(e.priced))
	} else {
		sched, err = pipeline.Build(e.cfg.Method, pipeline.BuildConfig{
			Stages:               e.cfg.Stages,
			MicroBatches:         e.cfg.MicroBatches,
			Steps:                e.roundLen,
			Costs:                e.priced,
			DataParallelWidth:    e.cfg.Replicas,
			IncludeOptimizerWork: true,
		})
	}
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(sched); err != nil {
		return fmt.Errorf("engine: schedule not executable: %w", err)
	}
	if e.kfacPre != nil {
		// The degradation ladder treats a failed refresh op as a success
		// (stale inverses serve instead); that is only sound when no
		// base-path op consumes a refresh op's output. Prove it per
		// schedule, once, here.
		if err := schedule.ValidateDegradedSafety(sched); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	e.sched = sched
	e.run = newRunState(e)
	e.carries = slices.ContainsFunc(sched.Ops, func(op *pipeline.Op) bool { return op.Generation > 0 })
	e.sizeSlots()
	return nil
}

// sizeSlots fits the executor's activation memory to the schedule just
// built: every (module set, stage) gets as many activation slots as its
// owner keeps micro-batches in flight, and every device one backward
// scratch per block position of a stage. A device's ops are serial and each
// backward's results are copied out inside the op, so all slots of all
// stages a device hosts share that scratch.
func (e *Engine) sizeSlots() {
	depth := e.sched.InFlightDepth()
	for s, owners := range e.sched.Placement.Owners {
		for i, o := range owners {
			e.sets[e.setOf(o.Replica, o.Pipeline)].stages[s].resize(depth[s][i])
		}
	}
	for len(e.scratch) < e.sched.Devices {
		blocks := make([]*nn.BlockScratch, len(e.sets[0].stages[0].blocks))
		for i := range blocks {
			blocks[i] = new(nn.BlockScratch)
		}
		e.scratch = append(e.scratch, blocks)
	}
}

// ScheduleConfig returns the PipeFisher configuration the engine runs —
// family, topology, round shape — priced with the given costs: what
// rebuildSchedule packs with the engine's own cost shape, and what a caller
// re-simulating the engine's rounds (measured costs, say) must pass to
// schedule.Executable to get the same round.
func (e *Engine) ScheduleConfig(costs pipeline.StageCosts) schedule.Config {
	return schedule.Config{
		Method:            e.cfg.Method,
		Stages:            e.cfg.Stages,
		MicroBatches:      e.cfg.MicroBatches,
		Costs:             costs,
		DataParallelWidth: e.cfg.Replicas,
		InversionParallel: e.cfg.InversionParallel,
		CrossProcess:      e.multiRank,
		RefreshSteps:      e.roundLen,
		Overlap:           e.cfg.OverlapRounds,
	}
}

// resolveParallelism fixes the step's intra-op budget to the worker pool as
// it is sized right now (tensor.Parallelism — all the kernels can recruit,
// so the recorded Timeline values reflect reality), split evenly across the
// device goroutines so no device oversubscribes the shared pool.
func (e *Engine) resolveParallelism() {
	e.workers = tensor.Parallelism()
	e.opShare = e.workers / e.sched.Devices
	if e.opShare < 1 {
		e.opShare = 1
	}
}

// Stages returns the number of pipeline stages.
func (e *Engine) Stages() int { return e.cfg.Stages }

// RoundSteps returns the round length K (the number of training steps one
// TrainRound executes): Config.RefreshSteps, or — under AdaptiveRefreshSteps
// — the refresh window derived from the packing costs, which may change
// after the first round at a new micro-batch shape (1 before K-FAC is
// enabled).
func (e *Engine) RoundSteps() int { return e.roundLen }

// SetOptimizer registers the caller's parameter update, fired exactly once
// per training step by the step's commit: all of the step's gradient
// collectives and preconditions have completed, and no base op of the next
// step has started — each depends on its device's OptStep, which the commit
// signals only once the callback returned — so the other device goroutines
// run only K-FAC refresh work, which reads no parameter: the callback has
// exclusive access to the primary's parameters, which every module set
// computes with. It runs on whichever device goroutine commits the step,
// the last whose OptStep arrived. The argument is the
// global step index. The callback reads the step's reduced (and, with
// K-FAC, preconditioned) gradient from the primary's accumulators; nothing
// needs zeroing, because the next step's fold overwrites them. Required
// before TrainRound on engines with RefreshSteps > 1.
//
// The callback must be atomic: either update every parameter or return an
// error having touched none. A callback that errors out half way leaves
// the model in a state the engine cannot roll back (the step is counted
// uncommitted, but parameter writes are the caller's); optimizers whose
// failure mode is detected mid-loop should validate first, then apply.
func (e *Engine) SetOptimizer(apply func(step int) error) { e.optApply = apply }

// Replicas returns the data-parallel width W.
func (e *Engine) Replicas() int { return e.cfg.Replicas }

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

// Method returns the schedule family the engine executes.
func (e *Engine) Method() string { return e.cfg.Method }

// Schedule exposes the executable schedule (op lists + per-device orders)
// the engine walks each step.
func (e *Engine) Schedule() *pipeline.Schedule { return e.sched }

// StageLayers returns the K-FAC-eligible dense layers of one stage (the
// primary replica's copy — the one the preconditioners are attached to).
func (e *Engine) StageLayers(s int) []*nn.Dense { return e.sets[0].stages[s].layers }

// LastTimeline returns the executed timeline of the most recent round
// (wall-clock microseconds, one event per executed op with its step index,
// per-step boundaries in StepEnd), or nil before the first step. Render it
// with the trace package next to a simulated timeline of the same schedule
// to compare real execution against the model.
func (e *Engine) LastTimeline() *pipeline.Timeline { return e.lastTimeline }

// EnableKFAC attaches one K-FAC preconditioner per stage, covering exactly
// that stage's fully-connected layers — PipeFisher's memory layout: "each
// accelerator only needs to store the ... curvature matrices for the
// layers in the assigned pipeline stage" (§3(i)) — and switches the
// executable schedule to the PipeFisher-packed form: curvature and
// inversion ops placed in the pipeline bubbles, a precondition op per stage
// at the end of each step. Curvature/inversion ops execute every
// refreshEvery steps (1 = every step); preconditioning runs every step with
// the (possibly stale) cached inverses, exactly the staleness discipline of
// §3.1. The preconditioners attach to the primary replica's layers;
// replicas contribute curvature statistics from their own micro-batches
// and — under InversionParallel — invert their round-robin shard of each
// stage's factors.
// With Config.RefreshSteps = K > 1 the refresh work is not skipped but
// *spread*: the executable schedule spans K steps and one refresh packs
// into the bubbles of the whole window, so refreshEvery = K realizes the
// same cadence as the historical skip-based refreshEvery on a one-step
// schedule — by round shape instead of by skipping — and refreshEvery = nK
// skips whole rounds between refreshes. refreshEvery must be a multiple of
// K (a refresh window cannot straddle a round boundary); 0 defaults to K.
// With Config.RefreshSteps = AdaptiveRefreshSteps the round length K is
// resolved here, from modeled work: schedule.AdaptiveRoundLength reports
// how many steps' bubbles one refresh needs under the engine's cost shape,
// and that window becomes the executable round (RoundSteps reports it). The
// cost shape is priced at the micro-batch shape the engine knows; the first
// round at another shape re-derives K once it committed.
func (e *Engine) EnableKFAC(opts kfac.Options, refreshEvery int) error {
	k := e.cfg.RefreshSteps
	adaptive := k == AdaptiveRefreshSteps
	if adaptive {
		var err error
		k, err = schedule.AdaptiveRoundLength(e.ScheduleConfig(e.priced))
		if err != nil {
			return fmt.Errorf("engine: deriving adaptive round length: %w", err)
		}
	}
	if refreshEvery <= 0 {
		refreshEvery = k
	}
	if refreshEvery%k != 0 {
		if adaptive {
			return fmt.Errorf("engine: refreshEvery %d must be a multiple of the round length K=%d, which was derived adaptively from the measured refresh work (Config.RefreshSteps = AdaptiveRefreshSteps) — pass refreshEvery 0 to refresh every round, or query RoundSteps after EnableKFAC",
				refreshEvery, k)
		}
		return fmt.Errorf("engine: refreshEvery %d must be a multiple of the round length RefreshSteps %d",
			refreshEvery, k)
	}
	prevLen := e.roundLen
	e.roundLen = k
	e.kfacPre = make([]*kfac.Preconditioner, e.cfg.Stages)
	e.layerMu = make([][]sync.Mutex, e.cfg.Stages)
	for s, st := range e.sets[0].stages {
		e.kfacPre[s] = kfac.NewPreconditioner(st.layers, opts)
		e.layerMu[s] = make([]sync.Mutex, len(st.layers))
	}
	e.kfacOpts = opts
	e.refreshEvery = refreshEvery
	e.stepIndex = 0 // restart the refresh cadence: the next round refreshes
	e.roundIndex = 0
	if err := e.rebuildSchedule(); err != nil {
		e.kfacPre = nil
		e.roundLen = prevLen
		return err
	}
	// Generation pools for the refresh pipeline (see kfacGenPool): the
	// collecting generation and the carried one, so overlapped rounds can
	// collect a generation while the previous one's carried ops drain.
	// Their buffers are shape-stable across schedule rebuilds, which keep
	// Stages/MicroBatches/Replicas fixed.
	perStep, nLayers := e.cfg.MicroBatches*e.cfg.Replicas, len(e.sets[0].stages[0].layers)
	for i, p := range e.kfacPools {
		if p == nil {
			e.kfacPools[i] = newKFACGenPool(e.cfg.Stages, perStep, nLayers, e.cfg.Replicas, &e.held.partials)
		}
	}
	e.dropGenerations(false) // re-enabling K-FAC must not inherit stale pool state
	e.kfacGen = 0
	e.refreshPending = false
	e.adaptPending = false
	return nil
}

// dropGenerations restarts the refresh pipeline: every statistics
// generation in flight is discarded — each pool scrubbed, what it still
// holds going back to the workspace pool — and the next round refreshes if
// force is set or a carried generation was dropped, since its factors were
// only half delivered. Every path that aborts a round, changes the schedule
// or resets the preconditioners goes through here.
func (e *Engine) dropGenerations(force bool) {
	if force || e.carried != nil {
		e.refreshPending = true
	}
	for _, p := range e.kfacPools {
		if p != nil {
			p.reset()
		}
	}
	e.carried = nil
}

// FoldBytes reports the high-water bytes the last round's folds held in
// pooled buffers: K-FAC Gram partials together with the factor sums they
// fold into, and per-micro-batch gradient delta sets — the contributions
// that wait for their turn in a reduction's fixed order, and the sums they
// wait for.
func (e *Engine) FoldBytes() (partials, deltas int64) {
	return e.held.partials.peak.Load(), e.held.deltas.peak.Load()
}

// KFACStates exposes the per-stage preconditioner (nil-safe; used by tests
// and trainers to inspect refresh counters and staleness).
func (e *Engine) KFACStates(s int) *kfac.Preconditioner {
	if e.kfacPre == nil {
		return nil
	}
	return e.kfacPre[s]
}

// StepResult reports one pipelined training step.
type StepResult struct {
	// Loss aggregates the micro-batch losses exactly as a full-batch step
	// would (each micro-batch contribution is pre-scaled by its share of
	// the global loss denominators).
	Loss pipemodel.Loss
	// Refreshed reports whether this step belonged to a refresh window:
	// its round collected the refresh's statistics and executed the packed
	// curvature/inversion ops (spread over the window's bubbles for
	// RefreshSteps > 1). Steps of non-refresh rounds precondition with
	// stale inverses and report false — including, under OverlapRounds, a
	// round that only drains the previous window's carried refresh work.
	Refreshed bool
	// Degraded reports that the step's round ran in degraded mode: some
	// K-FAC refresh work failed past its retry budget and the round served
	// the previous generation's inverses instead (or unpreconditioned SGD
	// when no generation was ever delivered) — the §3.1 staleness rule
	// extended across failures. The engine re-runs a full refresh on the
	// next round. DegradedReason carries the first failure that triggered
	// the degradation.
	Degraded       bool
	DegradedReason string
}

// TrainStep runs one training step — the degenerate one-step round. It is
// only valid on engines with RefreshSteps <= 1; multi-step rounds are
// atomic and must go through TrainRound. Gradients are reduced across
// micro-batches and replicas in the fixed collective order and written over
// the primary model's gradient accumulators — whatever they held before is
// overwritten, so the caller does not zero them — preconditioned when K-FAC
// is on; unless SetOptimizer was called, the caller applies the optimizer
// between steps.
func (e *Engine) TrainStep(batch *data.Batch) (*StepResult, error) {
	if e.roundLen > 1 {
		return nil, fmt.Errorf("engine: RefreshSteps=%d executes multi-step rounds; call TrainRound with %d batches",
			e.roundLen, e.roundLen)
	}
	res, err := e.TrainRound([]*data.Batch{batch})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// TrainRound runs one refresh round — RefreshSteps consecutive training
// steps, one batch per step — as a single executable schedule: one loop per
// device, on the process-wide pool of device goroutines, walks all K steps'
// ops without teardown, micro-batched forwards and backwards follow the schedule's per-device op
// order (each replica processing its own shard of each step's batch), and
// — with K-FAC enabled on a refresh round — the curvature and inversion
// work of ONE refresh executes in the bubbles of the whole window, each
// step preconditioning with the freshest inverses completed by that step.
// Gradient collectives and the optimizer callback fire once per step at
// the round-internal step commits (the collectives in the fixed
// bit-identical ascending-global-micro order). On an error the round
// aborts; steps whose optimizer already fired stay committed — their
// StepResults are returned alongside the error and the engine's step
// counter advances past them only — and an aborted *refresh* round (or one
// with a carried generation in flight) forces the next round to refresh
// again rather than serving half-delivered factors as a stale generation.
// After a committed round the primary's gradient accumulators hold the last
// step's reduced gradient (preconditioned when K-FAC is on); after an
// aborted one their contents are unspecified. Either way the next step's
// fold overwrites them.
//
// With OverlapRounds, a collect round whose refresh spills keeps its
// statistics generation pending and the NEXT round executes the carried
// ops — filling its early bubbles with the queued inversions — whatever
// that round's own refresh status; preconditions see each factor's
// freshest completed inverse across the window boundary.
func (e *Engine) TrainRound(batches []*data.Batch) ([]*StepResult, error) {
	r := e.roundLen
	if len(batches) != r {
		return nil, fmt.Errorf("engine: a round is %d steps (RefreshSteps), got %d batches", r, len(batches))
	}
	if r > 1 && e.optApply == nil {
		return nil, fmt.Errorf("engine: multi-step rounds need SetOptimizer: the update fires once per step inside the round")
	}
	// Every rank of a multi-rank group receives the full global batch and
	// trains its contiguous slice of the step's micro-batches — rank g of
	// W_g ranks running R replicas owns global micros [g*R*M, (g+1)*R*M).
	// Loss denominators (and K-FAC totals) are computed over ALL global
	// micro-batches, so every rank scales its contributions exactly as the
	// single-process run of the same global width does.
	nLocal := e.cfg.MicroBatches * e.cfg.Replicas
	n := nLocal * e.group.Size()
	rank := e.group.Rank()
	micro := make([][]*data.Batch, r)
	totals := make([]pipemodel.Totals, r)
	for j, batch := range batches {
		if batch.BatchSize%n != 0 {
			return nil, fmt.Errorf("engine: batch size %d not divisible by %d micro-batches (%d per replica x %d replicas x %d ranks)",
				batch.BatchSize, n, e.cfg.MicroBatches, e.cfg.Replicas, e.group.Size())
		}
		if batch.SeqLen != e.sets[0].model.SeqLen() {
			return nil, fmt.Errorf("engine: batch seq len %d != model %d", batch.SeqLen, e.sets[0].model.SeqLen())
		}
		all := splitBatch(batch, n)
		// Each step's global loss denominators must be known before any of
		// its backwards starts (they are known after data loading: masking
		// is part of the batch).
		totals[j] = pipemodel.Totals{Seqs: batch.BatchSize}
		for _, mb := range all {
			totals[j].Tokens += e.sets[0].model.BatchTokenCount(mb)
		}
		micro[j] = all[rank*nLocal : (rank+1)*nLocal]
	}
	// The packing is priced from the micro-batch shape: follow a new one.
	if seqs := batches[0].BatchSize / n; seqs > 0 && seqs != e.microSeqs {
		if err := e.reprice(seqs); err != nil {
			return nil, err
		}
	}
	// The round checkpoint is taken before anything mutates state — at
	// this point the engine is exactly as the previous round's commit left
	// it, so saving here is saving at round commit.
	if e.cfg.Checkpoint {
		if e.optApply != nil && e.optState == nil {
			return nil, fmt.Errorf("engine: Checkpoint with SetOptimizer needs AttachOptimizerState: replaying a round must rewind the optimizer's internal state too")
		}
		e.saveCheckpoint()
	}
	// Cadence is counted in rounds (refreshEvery is a validated multiple of
	// the round length), so a partially committed round cannot desync the
	// refresh phase: a refresh fires on every (refreshEvery/K)-th round —
	// and again right away after an aborted refresh round, whose
	// half-delivered factor state must not serve as a stale generation.
	refresh := e.kfacPre != nil && (e.refreshPending || e.roundIndex%(e.refreshEvery/r) == 0)
	// Generation pools: a collect round writes kfacGen's rotation buffer;
	// the carried generation (overlapped rounds) drains out of the other,
	// every Generation-1 op reading the pool collected last round. Both can
	// be live in the same round — that is the overlap.
	var cur *kfacGenPool
	if refresh {
		cur = e.kfacPools[e.kfacGen%2]
		cur.reset()
		cur.totals = totals[0]
	}

	// Open a fresh transport epoch: clears any abort of a previous failed
	// round so a checkpoint replay's collectives run clean (every rank
	// calls TrainRound in lockstep, so epochs stay aligned group-wide).
	e.group.BeginRound()

	// Cap each device goroutine's kernels to its fair share of the
	// intra-op worker pool for the duration of the round, restoring the
	// caller's cap afterwards. The cap is a process-global knob: running
	// rounds on two Engine instances concurrently would clobber each
	// other's share (and the restored value) — step engines one at a
	// time per process, as every entry point here does.
	e.resolveParallelism()
	prevCap := tensor.OpParallelism()
	tensor.SetOpParallelism(e.opShare)
	defer tensor.SetOpParallelism(prevCap)
	roundStart := time.Now()
	res, committed, err := e.runRound(micro, totals, refresh, cur, e.carried)
	if err == nil {
		// Feed the round's wall time to the transport's liveness layer:
		// heartbeats carry it to every peer, where it surfaces as the
		// per-rank pace RankStats reports.
		if ob, ok := e.group.(interface{ ObserveRoundDuration(time.Duration) }); ok {
			ob.ObserveRoundDuration(time.Since(roundStart))
		}
	}
	e.stepIndex += committed
	if committed > 0 {
		e.roundIndex++
	}
	if err != nil {
		// A half-collected generation (this round's) or a half-delivered
		// one (the carried) must not survive the abort: scrub every pool
		// and force the next round to run a full refresh.
		e.dropGenerations(refresh)
		return res, err
	}
	// The carried generation's ops ran this round, so its pool retires
	// (reset makes it reusable) — unless it degraded, in which case the
	// preconditioner may hold a mix of its factors and older ones: force a
	// full refresh next round.
	oldDegraded := false
	if old := e.carried; old != nil {
		oldDegraded = old.failed.Load()
		old.reset()
		e.carried = nil
	}
	if refresh {
		if cur.failed.Load() {
			// The collected generation degraded: some of its factors never
			// folded or inverted. Scrub it — a poisoned generation is never
			// served as a stale one or carried forward — and refresh again
			// next round.
			cur.reset()
			e.refreshPending = true
		} else {
			e.refreshPending = oldDegraded
			e.kfacGen++
			if e.carries {
				// The spilled part of this generation executes next round as
				// the carried ops: keep its snapshots/partials pending.
				e.carried = cur
			} else {
				cur.reset()
			}
		}
	} else if oldDegraded {
		e.refreshPending = true
	}
	if e.adaptPending {
		if err := e.adaptRoundLength(); err != nil {
			return res, err
		}
	}
	return res, err
}

// splitBatch cuts a batch into n equal micro-batches.
func splitBatch(b *data.Batch, n int) []*data.Batch {
	per := b.BatchSize / n
	out := make([]*data.Batch, n)
	for i := 0; i < n; i++ {
		lo, hi := i*per*b.SeqLen, (i+1)*per*b.SeqLen
		out[i] = &data.Batch{
			BatchSize: per,
			SeqLen:    b.SeqLen,
			Tokens:    b.Tokens[lo:hi],
			Targets:   b.Targets[lo:hi],
			IsNext:    b.IsNext[i*per : (i+1)*per],
		}
	}
	return out
}

// MeasuredCosts derives StageCosts from an executed timeline (mean measured
// duration per work kind; measured collective times fill SyncGrad and
// SyncCurvature when the timeline contains those events). Feeding these
// into the builders yields a simulated timeline calibrated to the real
// execution, for side-by-side rendering — including real-vs-modeled
// collective costs on data-parallel schedules. The optimizer update is the
// mean over steps of each step's longest OptStep event: the commit, which
// one device runs while the others' OptStep events only fold and arrive.
func MeasuredCosts(tl *pipeline.Timeline, nFactors int) pipeline.StageCosts {
	sum := make(map[pipeline.WorkKind]int64)
	cnt := make(map[pipeline.WorkKind]int64)
	for _, c := range CommitDurations(tl) {
		if c > 0 {
			sum[pipeline.OptStep] += int64(c)
			cnt[pipeline.OptStep]++
		}
	}
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Op.Kind != pipeline.OptStep {
				sum[ev.Op.Kind] += int64(ev.Duration())
				cnt[ev.Op.Kind]++
			}
		}
	}
	mean := func(k pipeline.WorkKind) hardware.Microseconds {
		// A kind that never ran costs the 1 µs floor.
		if cnt[k] == 0 {
			return 1
		}
		return hardware.Microseconds(max(sum[k]/cnt[k], 1))
	}
	// Curvature and inversion are observed per kind, not per factor, so one
	// mean prices every factor's unit, and inversion chains are left out
	// (they were priced from shapes the mean replaces).
	curv, inv := mean(pipeline.Curvature), mean(pipeline.Inversion)
	c := pipeline.StageCosts{
		Forward:                mean(pipeline.Forward),
		Backward:               mean(pipeline.Backward),
		CurvaturePerMicroBatch: curv * hardware.Microseconds(nFactors),
		CurvatureUnits:         slices.Repeat([]hardware.Microseconds{curv}, nFactors),
		InversionUnits:         slices.Repeat([]hardware.Microseconds{inv}, nFactors),
		Precondition:           mean(pipeline.Precondition),
		OptStep:                mean(pipeline.OptStep),
	}
	// A collective that never ran is one the topology does not have: it
	// stays unpriced.
	if cnt[pipeline.SyncGrad] > 0 {
		c.SyncGrad = mean(pipeline.SyncGrad)
	}
	if cnt[pipeline.SyncCurvature] > 0 {
		c.SyncCurvature = mean(pipeline.SyncCurvature)
	}
	return c
}

// CommitDurations returns, per step of an executed round, its longest
// OptStep event: the device that arrives last at the step's commit runs the
// commit inside its OptStep, every other device's OptStep only folds its
// stages and arrives.
func CommitDurations(tl *pipeline.Timeline) []hardware.Microseconds {
	out := make([]hardware.Microseconds, tl.Steps)
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if j := ev.Op.Step; ev.Op.Kind == pipeline.OptStep && j >= 0 && j < len(out) {
				out[j] = max(out[j], ev.Duration())
			}
		}
	}
	return out
}
