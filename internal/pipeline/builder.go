package pipeline

import (
	"fmt"

	"repro/internal/hardware"
)

// BuildConfig configures a schedule builder.
type BuildConfig struct {
	// Stages is the pipeline depth D.
	Stages int
	// MicroBatches is N_micro, the micro-batches per device per step (for
	// Chimera this is the total across both directions).
	MicroBatches int
	// Steps is the number of consecutive training steps to lay out.
	Steps int
	// Costs supplies the per-stage work durations (uniform stages, as the
	// paper assumes in §3.3).
	Costs StageCosts
	// DataParallelWidth is W, the number of data-parallel replicas: per
	// stage for GPipe and 1F1B, and whole bidirectional pipeline pairs
	// for Chimera (each pair carrying its own MicroBatches).
	DataParallelWidth int
	// IncludeOptimizerWork appends sync-grad (when W > 1) and the
	// optimizer update to each step, as in the paper's profiles.
	IncludeOptimizerWork bool
	// IncludePrecondition inserts the per-step K-FAC preconditioning work
	// between gradient synchronization and the optimizer update — "the
	// only computational overhead of PipeFisher over the standard pipeline
	// schemes" (Figure 1). Requires IncludeOptimizerWork.
	IncludePrecondition bool
}

func (c BuildConfig) normalize() (BuildConfig, error) {
	if c.Stages <= 0 {
		return c, fmt.Errorf("pipeline: Stages must be positive, got %d", c.Stages)
	}
	if c.MicroBatches <= 0 {
		return c, fmt.Errorf("pipeline: MicroBatches must be positive, got %d", c.MicroBatches)
	}
	if c.Steps <= 0 {
		c.Steps = 1
	}
	if c.DataParallelWidth <= 0 {
		c.DataParallelWidth = 1
	}
	if c.Costs.Forward <= 0 || c.Costs.Backward <= 0 {
		return c, fmt.Errorf("pipeline: Costs.Forward/Backward must be positive")
	}
	return c, nil
}

// family is one row of the builders table.
type family struct {
	method string
	build  func(BuildConfig) (*Schedule, error)
	// pipelines is how many pipelines the family runs per replica.
	pipelines int
	// fits rejects a (stages, micro-batches) topology the family cannot lay
	// out; nil accepts every one. The builder applies it too.
	fits func(stages, microBatches int) error
}

// builders names the synchronous schedule families — the one place that
// knows the method names the engine and the PipeFisher packer accept. A new
// family is a builder plus a row.
var builders = []family{
	{"gpipe", BuildGPipe, 1, nil},
	{"1f1b", Build1F1B, 1, nil},
	{"chimera", BuildChimera, 2, chimeraFits},
}

func lookup(method string) (family, error) {
	for _, b := range builders {
		if b.method == method {
			return b, nil
		}
	}
	return family{}, fmt.Errorf("pipeline: unknown method %q (want one of %v)", method, Methods())
}

// Methods lists the schedule families Build accepts.
func Methods() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.method
	}
	return names
}

// Pipelines reports how many pipelines the family runs per replica — the
// module sets a replica needs and, times the replica count, the width of a
// stage's device group. 0 for an unknown method.
func Pipelines(method string) int {
	b, _ := lookup(method)
	return b.pipelines
}

// Feasible reports whether Build can lay the family out over the topology:
// nil, or the error Build would refuse it with.
func Feasible(method string, stages, microBatches int) error {
	b, err := lookup(method)
	if err != nil || b.fits == nil {
		return err
	}
	return b.fits(stages, microBatches)
}

// Build lays out the named schedule family. The placement the ops came out
// with is checked against what was asked for — DataParallelWidth replicas of
// the family's pipelines — so no op names a module set the executor did not
// build.
func Build(method string, cfg BuildConfig) (*Schedule, error) {
	b, err := lookup(method)
	if err != nil {
		return nil, err
	}
	s, err := b.build(cfg)
	if err != nil {
		return nil, err
	}
	if p, w := s.Placement, max(cfg.DataParallelWidth, 1); p.Replicas != w || p.Pipelines != b.pipelines {
		return nil, fmt.Errorf("pipeline: %s placed %d replicas x %d pipelines, want %d x %d",
			method, p.Replicas, p.Pipelines, w, b.pipelines)
	}
	return s, nil
}

// BuildGPipe lays out the GPipe schedule (Huang et al., 2019): all forwards
// for the step's micro-batches, then all backwards in reverse order, with a
// pipeline flush between steps (Figure 1a).
func BuildGPipe(cfg BuildConfig) (*Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return buildForwardBackward(cfg, "GPipe", gpipeOrder)
}

// Build1F1B lays out the one-forward-one-backward schedule (Narayanan et
// al., 2019, with flush): a warmup of forwards, a steady 1F1B phase, and a
// cooldown of backwards.
func Build1F1B(cfg BuildConfig) (*Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return buildForwardBackward(cfg, "1F1B", oneFOneBOrder)
}

// phase describes one entry of a per-stage op order: forward or backward of
// a micro-batch.
type phase struct {
	kind  WorkKind
	micro int
}

// gpipeOrder returns the GPipe per-stage order: F0..F(N-1), B(N-1)..B0.
func gpipeOrder(stage, stages, n int) []phase {
	out := make([]phase, 0, 2*n)
	for m := 0; m < n; m++ {
		out = append(out, phase{Forward, m})
	}
	for m := n - 1; m >= 0; m-- {
		out = append(out, phase{Backward, m})
	}
	return out
}

// oneFOneBOrder returns the 1F1B per-stage order: warmup forwards, steady
// alternation, cooldown backwards.
func oneFOneBOrder(stage, stages, n int) []phase {
	warmup := stages - 1 - stage
	if warmup > n {
		warmup = n
	}
	out := make([]phase, 0, 2*n)
	for m := 0; m < warmup; m++ {
		out = append(out, phase{Forward, m})
	}
	for i := 0; i < n-warmup; i++ {
		out = append(out, phase{Forward, warmup + i})
		out = append(out, phase{Backward, i})
	}
	for m := n - warmup; m < n; m++ {
		out = append(out, phase{Backward, m})
	}
	return out
}

// buildForwardBackward lays out a unidirectional schedule with one stage
// per device (replicated W times for data parallelism) using the per-stage
// order function. Ops are created in dependency order (all forwards by
// ascending stage, then all backwards by descending stage) and the device
// execution order is assembled afterwards from the phase lists.
func buildForwardBackward(cfg BuildConfig, name string, order func(stage, stages, n int) []phase) (*Schedule, error) {
	d, n, w := cfg.Stages, cfg.MicroBatches, cfg.DataParallelWidth
	s := &Schedule{
		Name:         name,
		Devices:      d * w,
		Stages:       d,
		MicroBatches: n,
		Steps:        cfg.Steps,
		Order:        make([][]int, d*w),
	}
	fid := make(map[[4]int]int)       // (step, replica, stage, micro)
	bid := make(map[[5]int]int)       // (step, replica, pipeline 0, stage, micro)
	tailIDs := make(map[[2]int][]int) // (step, device) -> ordered tail ops, the optimizer update last

	for step := 0; step < cfg.Steps; step++ {
		// Pass 1: forwards, ascending stages (deps already exist).
		for r := 0; r < w; r++ {
			for stage := 0; stage < d; stage++ {
				for m := 0; m < n; m++ {
					op := &Op{
						Kind: Forward, Device: stage*w + r, Stage: stage, Replica: r,
						MicroBatch: m, Factor: -1, Step: step, Duration: cfg.Costs.Forward,
					}
					if stage > 0 {
						op.Deps = append(op.Deps, fid[[4]int{step, r, stage - 1, m}])
					}
					if prev := tailIDs[[2]int{step - 1, stage*w + r}]; len(prev) > 0 {
						op.Deps = append(op.Deps, prev[len(prev)-1])
					}
					s.addOp(op)
					fid[[4]int{step, r, stage, m}] = op.ID
				}
			}
		}
		// Pass 2: backwards, descending stages.
		for r := 0; r < w; r++ {
			for stage := d - 1; stage >= 0; stage-- {
				for m := 0; m < n; m++ {
					op := &Op{
						Kind: Backward, Device: stage*w + r, Stage: stage, Replica: r,
						MicroBatch: m, Factor: -1, Step: step, Duration: cfg.Costs.Backward,
					}
					if stage < d-1 {
						op.Deps = append(op.Deps, bid[[5]int{step, r, 0, stage + 1, m}])
					} else {
						op.Deps = append(op.Deps, fid[[4]int{step, r, stage, m}])
					}
					s.addOp(op)
					bid[[5]int{step, r, 0, stage, m}] = op.ID
				}
			}
		}
		// Pass 3: step tail.
		if cfg.IncludeOptimizerWork {
			for r := 0; r < w; r++ {
				for stage := 0; stage < d; stage++ {
					tailIDs[[2]int{step, stage*w + r}] = s.stepTail(cfg, 1, step, stage*w+r, r, []int{stage}, bid)
				}
			}
		}
	}
	// Assemble device orders from the phase lists.
	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < w; r++ {
			for stage := 0; stage < d; stage++ {
				dev := stage*w + r
				for _, ph := range order(stage, d, n) {
					if ph.kind == Forward {
						s.Order[dev] = append(s.Order[dev], fid[[4]int{step, r, stage, ph.micro}])
					} else {
						s.Order[dev] = append(s.Order[dev], bid[[5]int{step, r, 0, stage, ph.micro}])
					}
				}
				s.Order[dev] = append(s.Order[dev], tailIDs[[2]int{step, dev}]...)
			}
		}
	}
	return s.seal()
}

// stepTail appends the end-of-step ops of one device and returns their IDs
// in execution order, the optimizer update last: a sync-grad all-reduce iff
// the group holding a stage — W replicas x the family's pipelines — is wider
// than one device (§3.2: Chimera couples each stage's device pair even at
// W = 1), the K-FAC precondition when asked for, then the update. hosted
// lists the stages the device hosts, in pipeline order: the tail carries the
// first as its Stage, costs the per-stage durations once per hosted stage,
// and waits for the backwards of every hosted stage on every owner (bid is
// keyed step, replica, pipeline, stage, micro-batch index within the
// pipeline). Both callers emit tails in (replica, pipeline-0 stage) order.
func (s *Schedule) stepTail(cfg BuildConfig, pipelines, step, dev, replica int, hosted []int, bid map[[5]int]int) []int {
	var deps, ids []int
	for r := 0; r < cfg.DataParallelWidth; r++ {
		for pipe := 0; pipe < pipelines; pipe++ {
			for _, stage := range hosted {
				for m := 0; m < cfg.MicroBatches/pipelines; m++ {
					deps = append(deps, bid[[5]int{step, r, pipe, stage, m}])
				}
			}
		}
	}
	add := func(kind WorkKind, perStage hardware.Microseconds) {
		op := &Op{
			Kind: kind, Device: dev, Stage: hosted[0], Replica: replica, MicroBatch: -1, Factor: -1,
			Step: step, Duration: max(hardware.Microseconds(len(hosted))*perStage, 1), Deps: deps,
		}
		s.addOp(op)
		ids = append(ids, op.ID)
		deps = []int{op.ID}
	}
	if cfg.DataParallelWidth*pipelines > 1 {
		add(SyncGrad, cfg.Costs.SyncGrad)
	}
	if cfg.IncludePrecondition {
		add(Precondition, cfg.Costs.Precondition)
	}
	add(OptStep, cfg.Costs.OptStep)
	return ids
}

// BuildChimera lays out the Chimera schedule (Li & Hoefler, 2021) with two
// bidirectional pipelines: the down pipeline maps stage s to device s, the
// up pipeline maps stage s to device D-1-s, and each direction carries N/2
// micro-batches. With DataParallelWidth W > 1 the whole bidirectional pair
// is replicated W times (replica r occupies devices [r*D, (r+1)*D)), each
// replica carrying its own N micro-batches, with a cross-replica sync-grad
// in the step tail. Like GPipe's and 1F1B's, the device orders depend on
// (D, N) alone: each direction's stage runs 1F1B over D/2 slots, a device
// interleaves its two stages' slot orders (chimeraSlotOrders), and each
// slot then carries its share of the direction's micro-batches
// (slotMicros). At N = D the step takes Table 1's D·T_f + (2D−2)·T_b.
func BuildChimera(cfg BuildConfig) (*Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	d, n, w := cfg.Stages, cfg.MicroBatches, cfg.DataParallelWidth
	if err := chimeraFits(d, n); err != nil {
		return nil, err
	}
	half := n / 2
	s := &Schedule{
		Name:         "Chimera",
		Devices:      d * w,
		Stages:       d,
		MicroBatches: n,
		Steps:        cfg.Steps,
		Order:        make([][]int, d*w),
	}
	fid := make(map[[5]int]int) // (step, replica, pipe, stage, micro index within pipe)
	bid := make(map[[5]int]int)
	tailIDs := make(map[[2]int][]int) // (step, device) -> ordered tail ops, the optimizer update last
	// prevTail[dev] is the op every op of the next step on dev must follow
	// (the optimizer update, or the step's last backward without one).
	prevTail := make([]int, d*w)
	for i := range prevTail {
		prevTail[i] = -1
	}

	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < w; r++ {
			for pipe := 0; pipe < 2; pipe++ {
				for stage := 0; stage < d; stage++ {
					for m := 0; m < half; m++ {
						f := &Op{
							Kind: Forward, Device: r*d + chimeraFlip(d, pipe, stage), Stage: stage, Replica: r,
							MicroBatch: pipe*half + m, Factor: -1, Step: step, Pipeline: pipe,
							Duration: cfg.Costs.Forward,
						}
						if stage > 0 {
							f.Deps = append(f.Deps, fid[[5]int{step, r, pipe, stage - 1, m}])
						}
						if prevTail[f.Device] >= 0 {
							f.Deps = append(f.Deps, prevTail[f.Device])
						}
						s.addOp(f)
						fid[[5]int{step, r, pipe, stage, m}] = f.ID
					}
				}
				for stage := d - 1; stage >= 0; stage-- {
					for m := 0; m < half; m++ {
						b := &Op{
							Kind: Backward, Device: r*d + chimeraFlip(d, pipe, stage), Stage: stage, Replica: r,
							MicroBatch: pipe*half + m, Factor: -1, Step: step, Pipeline: pipe,
							Duration: cfg.Costs.Backward,
						}
						if stage < d-1 {
							b.Deps = append(b.Deps, bid[[5]int{step, r, pipe, stage + 1, m}])
						} else {
							b.Deps = append(b.Deps, fid[[5]int{step, r, pipe, stage, m}])
						}
						if prevTail[b.Device] >= 0 {
							b.Deps = append(b.Deps, prevTail[b.Device])
						}
						s.addOp(b)
						bid[[5]int{step, r, pipe, stage, m}] = b.ID
					}
				}
			}
		}
		// Step tail, per device: it hosts its down stage and that stage's
		// mirror. Without optimizer work the next step still flushes behind
		// the device's up stage's last backward.
		for r := 0; r < w; r++ {
			for stage := 0; stage < d; stage++ {
				dev, mirror := r*d+stage, d-1-stage
				if cfg.IncludeOptimizerWork {
					tail := s.stepTail(cfg, 2, step, dev, r, []int{stage, mirror}, bid)
					tailIDs[[2]int{step, dev}] = tail
					prevTail[dev] = tail[len(tail)-1]
				} else {
					prevTail[dev] = bid[[5]int{step, r, 1, mirror, half - 1}]
				}
			}
		}
	}
	// Assemble device orders from the slot orders, each slot widened to its
	// micro-batches.
	slotOrders := chimeraSlotOrders(d)
	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < w; r++ {
			for dev, order := range slotOrders {
				rdev := r*d + dev
				for _, ph := range order {
					ids := fid
					if ph.kind == Backward {
						ids = bid
					}
					lo, hi := slotMicros(ph.micro, half, d/2)
					for m := lo; m < hi; m++ {
						s.Order[rdev] = append(s.Order[rdev], ids[[5]int{step, r, ph.pipe, chimeraFlip(d, ph.pipe, dev), m}])
					}
				}
				s.Order[rdev] = append(s.Order[rdev], tailIDs[[2]int{step, rdev}]...)
			}
		}
	}
	return s.seal()
}

// chimeraFits is Chimera's feasibility rule: the two directions split the
// micro-batches in half and pair stage s with stage D-1-s on one device.
func chimeraFits(stages, microBatches int) error {
	if stages%2 != 0 {
		return fmt.Errorf("pipeline: Chimera requires an even number of stages, got %d", stages)
	}
	if microBatches%2 != 0 {
		return fmt.Errorf("pipeline: Chimera requires an even number of micro-batches, got %d", microBatches)
	}
	return nil
}

// chimeraFlip maps a stage of pipeline pipe to the device of one replica
// that hosts it, and a device to its stage of pipe: the identity on the
// down pipeline, i -> D-1-i on the up one.
func chimeraFlip(d, pipe, i int) int {
	if pipe == 0 {
		return i
	}
	return d - 1 - i
}

// slotPhase is one entry of a Chimera device's slot order: a forward or
// backward of slot micro on the device's stage of pipeline pipe.
type slotPhase struct {
	phase
	pipe int
}

// chimeraSlotOrders returns, per device of one replica, the interleaving of
// its two stages' slot orders — down stage dev and up stage D-1-dev, each
// oneFOneBOrder over D/2 slots — by earliest start under nominal costs
// F = 1, B = 2: at each tick a free device starts whichever of its two next
// phases has its input done, the lower slot and then the down pipeline on a
// tie.
func chimeraSlotOrders(d int) [][]slotPhase {
	next := make([][2][]phase, d) // per device and pipeline, the phases still to run
	for dev := range next {
		for pipe := range 2 {
			next[dev][pipe] = oneFOneBOrder(chimeraFlip(d, pipe, dev), d, d/2)
		}
	}
	done := make(map[[4]int]int) // (kind, pipe, stage, slot) -> finish time
	// ready reports whether a phase's input — the previous stage's forward,
	// the next stage's backward, or the last stage's own forward — is done.
	ready := func(pipe, stage int, ph phase, now int) bool {
		in := [4]int{int(Backward), pipe, stage + 1, ph.micro}
		switch {
		case ph.kind == Forward && stage == 0:
			return true
		case ph.kind == Forward:
			in = [4]int{int(Forward), pipe, stage - 1, ph.micro}
		case stage == d-1:
			in = [4]int{int(Forward), pipe, stage, ph.micro}
		}
		t, ok := done[in]
		return ok && t <= now
	}
	free := make([]int, d) // when each device is next free
	out := make([][]slotPhase, d)
	for now, left := 0, 2*d*d; left > 0; now++ {
		for dev := range next {
			pick := -1
			for pipe := range 2 {
				q := next[dev][pipe]
				if free[dev] <= now && len(q) > 0 && ready(pipe, chimeraFlip(d, pipe, dev), q[0], now) &&
					(pick < 0 || q[0].micro < next[dev][pick][0].micro) {
					pick = pipe
				}
			}
			if pick < 0 {
				continue
			}
			ph := next[dev][pick][0]
			next[dev][pick] = next[dev][pick][1:]
			free[dev] = now + 1
			if ph.kind == Backward {
				free[dev]++
			}
			done[[4]int{int(ph.kind), pick, chimeraFlip(d, pick, dev), ph.micro}] = free[dev]
			out[dev] = append(out[dev], slotPhase{ph, pick})
			left--
		}
	}
	return out
}

// slotMicros returns the micro-batches [lo, hi) slot j carries when n are
// spread over slots consecutive slots, earlier slots taking the larger
// share; a slot is empty when n < slots.
func slotMicros(j, n, slots int) (lo, hi int) {
	lo = j*(n/slots) + min(j, n%slots)
	hi = lo + n/slots
	if j < n%slots {
		hi++
	}
	return lo, hi
}

// addOp registers an op; builders assemble the per-device orders once every
// op exists.
func (s *Schedule) addOp(op *Op) {
	op.ID = len(s.Ops)
	s.Ops = append(s.Ops, op)
}
