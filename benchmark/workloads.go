package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipemodel"
	"repro/internal/transport"
)

// nominalSeconds is the -seconds value the step budgets below were
// calibrated for on the 2-core bench host; other values scale the budgets
// in proportion. Budgets are step counts, never deadlines, so the losses
// and counts of a run repeat exactly for a given (-seed, -seconds).
const nominalSeconds = 20

const (
	stages     = 2 // every workload: one device goroutine per core of the bench host
	batchSize  = 8
	warmSteps  = 8 // warm-up steps per arm before anything is timed (ceil(8/K) rounds)
	gateSteps  = 4 // leading steps replayed on a gpipe twin by the correctness gate
	baseLR     = 5e-3
	lrWarmup   = 8
	lambDecay  = 0.01
	maxBlock   = 8    // steps per arm per interleaved block (K = 1 workloads; longer rounds are one block each)
	setupTimes = 3    // set-ups per run; setup_s is their median (one reading of a 0.15 s set-up does not repeat)
	evalTokens = 2048 // tokens of the held-out set the convergence metrics are read on (2048/seq sequences)
)

// workload is one training configuration both arms run. why is the reason
// it is in the benchmark (printed, and repeated in BENCHMARK.json).
type workload struct {
	name, why    string
	cfg          bert.Config
	method       string
	micro        int  // micro-batches per rank per step
	k            int  // round length: steps per TrainRound
	overlap      bool // OverlapRounds on the pipefisher arm
	refreshEvery int  // EnableKFAC cadence; 0 = every round
	ranks        int  // 1 = in-process loopback, 2 = socket ring in one process
	steps        int  // per-arm step budget at nominalSeconds
	lrSteps      int  // LR-decay horizon at nominalSeconds (shared by the two tiny workloads so their trajectories coincide)
	// lossAt is the step of the vanilla arm, at nominalSeconds, whose held-out
	// loss is the convergence target: a step on the steep part of the
	// workload's loss curve, where a crossing is well conditioned. Ten seeds of
	// the same code put the crossing of the loss at the END of the budget
	// anywhere in 0.7-1.0 of it on wide_1f1b_k8 (the LR has decayed to nothing
	// and the curve is flat there) and in 0.5-0.9 on the tiny workloads (from
	// step ~100 on they sit on the unigram plateau, and when an arm leaves it
	// is the seed's doing); see README, "Convergence".
	lossAt int
}

var workloads = []workload{
	{
		name: "tiny_1f1b",
		why:  "ms-scale steps: engine dispatch, channel waits, OptStep barrier, small-GEMM packing and exp/erf dominate; 3 of 4 steps only read cached inverses; the plain single-pipeline baseline",
		cfg:  bert.TinyConfig(), method: "1f1b", micro: 4, k: 1, refreshEvery: 4, ranks: 1,
		steps: 1600, lrSteps: 1600, lossAt: 32,
	},
	{
		name:   "base_chimera_k4",
		why:    "the paper's regime and headline schedule: forward/backward/recompute do most of the work, the refresh should vanish into bubbles, both devices host both stages (stage locks, in-process sync-grad)",
		cfg:    bert.Config{VocabSize: 512, DModel: 64, DFF: 256, Heads: 4, Blocks: 2, SeqLen: 64},
		method: "chimera", micro: 4, k: 4, overlap: true, ranks: 1,
		steps: 64, lrSteps: 64, lossAt: 40,
	},
	{
		name:   "wide_1f1b_k8",
		why:    "few tokens against wide factors: 512x512 inversion writes and the GEMM micro-kernel dominate, the refresh does not fit the bubbles, engine overhead is negligible",
		cfg:    bert.Config{VocabSize: 512, DModel: 128, DFF: 512, Heads: 4, Blocks: 2, SeqLen: 32},
		method: "1f1b", micro: 4, k: 8, overlap: true, ranks: 1,
		steps: 64, lrSteps: 64, lossAt: 40,
	},
	{
		name: "tiny_ring2",
		why:  "tiny_1f1b's model and global batch as two socket-ring ranks in one process: only here does transport do most of the work; 4 device goroutines share 2 cores, so it prices the wire, not scaling",
		cfg:  bert.TinyConfig(), method: "1f1b", micro: 2, k: 1, refreshEvery: 4, ranks: 2,
		steps: 1200, lrSteps: 1600, lossAt: 32,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blockSteps is the number of steps one arm runs before the other takes
// over: one round, or maxBlock one-step rounds — short enough that both arms
// of a pair see the same host, long enough that the switch itself (cold
// caches) does not dominate a millisecond-scale step.
func (w *workload) blockSteps() int {
	if w.k > 1 {
		return w.k
	}
	return maxBlock
}

// budget scales a nominal step count to the requested run length and share
// (1 untraced, 1/3 traced, ~1% quick), rounded down to whole blocks, never
// fewer than two blocks so both block orders occur.
func (w *workload) budget(nominal int, seconds, share float64) int {
	b := w.blockSteps()
	n := int(float64(nominal)*seconds/nominalSeconds*share) / b * b
	if n < 2*b {
		n = 2 * b
	}
	return n
}

// seeds derives the model and corpus seeds from -seed.
func seeds(seed uint64) (model, corpus uint64) {
	return seed*1000003 + 1, seed*1000003 + 2
}

// rankState is one rank's share of an arm.
type rankState struct {
	model *bert.Model
	eng   *engine.Engine
	opt   *optim.LAMB
	ring  *tracedRing // nil unless traced over a ring
}

// arm is one of the two twins — vanilla (K-FAC off) or pipefisher (K-FAC
// packed into bubbles) — over the same model seed and data stream.
type arm struct {
	name  string
	w     *workload
	ranks []*rankState
	rings []*transport.Ring
	ctx   *spanCtx // nil when untraced

	losses   []float64 // per step, rank 0: the training loss of the step's batch
	evalAt   []int     // steps trained at each held-out evaluation (untraced runs)
	evalLoss []float64 // held-out loss at each of them
	stepMS   []float64 // per round: wall ms / K
	blockMS  []float64
}

// armSpec selects what buildArm constructs. method/ranks/micro default to
// the workload's; the gate's twins override them.
type armSpec struct {
	name    string
	kfac    bool
	method  string
	ranks   int
	micro   int
	lrTotal int
	ctx     *spanCtx
}

func buildArm(w *workload, seed uint64, sp armSpec) (*arm, error) {
	if sp.method == "" {
		sp.method = w.method
	}
	if sp.ranks == 0 {
		sp.ranks, sp.micro = w.ranks, w.micro
	}
	a := &arm{name: sp.name, w: w, ctx: sp.ctx, ranks: make([]*rankState, sp.ranks)}
	if sp.ranks > 1 {
		rings, err := transport.NewLocalRing(sp.ranks, transport.DefaultChunkFloats)
		if err != nil {
			return nil, fmt.Errorf("%s: dial ring: %w", sp.name, err)
		}
		a.rings = rings
	}
	// Ranks construct concurrently: the initial parameter broadcast is
	// itself a collective.
	errs := make([]error, sp.ranks)
	var wg sync.WaitGroup
	for r := range a.ranks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a.ranks[r], errs[r] = a.buildRank(r, seed, sp)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			a.close()
			return nil, fmt.Errorf("%s rank %d: %w", sp.name, r, err)
		}
	}
	return a, nil
}

func (a *arm) buildRank(r int, seed uint64, sp armSpec) (*rankState, error) {
	w := a.w
	modelSeed, _ := seeds(seed)
	m, err := bert.New(w.cfg, modelSeed)
	if err != nil {
		return nil, err
	}
	rs := &rankState{model: m}
	var pm pipemodel.Model = m
	var group transport.Group
	if a.rings != nil {
		group = a.rings[r]
	}
	// Only rank 0 is decorated: its spans are the per-step numbers, and a
	// second traced rank would double every count.
	if sp.ctx != nil && r == 0 {
		pm = &tracedModel{Model: m, ctx: sp.ctx}
		if a.rings != nil {
			rs.ring = &tracedRing{Ring: a.rings[r], ctx: sp.ctx}
			group = rs.ring
		}
	}
	rs.eng, err = engine.NewWithConfig(pm, engine.Config{
		Method: sp.method, Stages: stages, MicroBatches: sp.micro,
		RefreshSteps: w.k, OverlapRounds: w.overlap && sp.kfac, Transport: group,
	})
	if err != nil {
		return nil, err
	}
	if sp.kfac {
		if err := rs.eng.EnableKFAC(kfac.DefaultOptions(), w.refreshEvery); err != nil {
			return nil, err
		}
	}
	rs.opt = optim.NewLAMB(m.Params(), lambDecay)
	lr := optim.PolyDecaySchedule{BaseLR: baseLR, WarmupSteps: lrWarmup, TotalSteps: sp.lrTotal, Power: 0.5}
	traced := sp.ctx != nil && r == 0
	rs.eng.SetOptimizer(func(step int) error {
		if traced {
			id := sp.ctx.begin("optim.step")
			defer sp.ctx.end(id)
		}
		rs.opt.Step(lr.LR(step))
		return nil
	})
	return rs, nil
}

// round runs one TrainRound (K steps) on every rank and returns rank 0's
// results and the wall time of the whole group.
func (a *arm) round(batches []*data.Batch) ([]*engine.StepResult, time.Duration, error) {
	span := -1
	if a.ctx != nil {
		span = a.ctx.log.begin("engine.round", a.name, -1)
		a.ctx.round.Store(int64(span))
	}
	start := time.Now()
	var res []*engine.StepResult
	var err error
	if len(a.ranks) == 1 {
		res, err = a.ranks[0].eng.TrainRound(batches)
	} else {
		errs := make([]error, len(a.ranks))
		var wg sync.WaitGroup
		for r := 1; r < len(a.ranks); r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, errs[r] = a.ranks[r].eng.TrainRound(batches)
			}(r)
		}
		res, errs[0] = a.ranks[0].eng.TrainRound(batches)
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	d := time.Since(start)
	if a.ctx != nil {
		a.ctx.round.Store(-1)
		a.ctx.log.end(span)
	}
	return res, d, err
}

// close releases the arm's rings; a nil arm (one that failed to build) is a
// no-op.
func (a *arm) close() {
	if a == nil {
		return
	}
	for _, r := range a.rings {
		if r != nil {
			r.Close() // sockets of a finished benchmark arm: nothing to do about a close error
		}
	}
	a.rings = nil
}
