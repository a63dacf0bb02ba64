package pipeline

import "fmt"

// BuildPipeDream lays out an asynchronous 1F1B schedule without pipeline
// flushes, in the style of PipeDream / PipeDream-2BW (Appendix C.1): after
// the initial warmup, every device alternates one forward and one backward
// indefinitely and updates its weights as soon as each micro-batch's
// backward completes, using weights up to D steps stale. Bubbles are almost
// non-existent, which is why the paper frames asynchronous pipelining as a
// competing "filling bubbles" approach — the bubbles are filled by forward
// and backward work on stale parameters rather than by K-FAC work.
//
// MicroBatches here is the total number of micro-batches simulated (the
// run's horizon), not a per-step count; Steps is ignored.
func BuildPipeDream(cfg BuildConfig) (*Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	d, n := cfg.Stages, cfg.MicroBatches
	if n < d {
		return nil, fmt.Errorf("pipeline: PipeDream needs at least D=%d micro-batches, got %d", d, n)
	}
	s := &Schedule{
		Name:         "PipeDream",
		Devices:      d,
		Stages:       d,
		MicroBatches: n,
		Steps:        1,
		Order:        make([][]int, d),
	}
	fid := make(map[[2]int]int) // (stage, micro)
	bid := make(map[[2]int]int)
	// Pass 1: all forwards in stage-ascending order.
	for stage := 0; stage < d; stage++ {
		for m := 0; m < n; m++ {
			op := &Op{
				Kind: Forward, Device: stage, Stage: stage, MicroBatch: m,
				Step: 0, Duration: cfg.Costs.Forward,
			}
			if stage > 0 {
				op.Deps = append(op.Deps, fid[[2]int{stage - 1, m}])
			}
			s.addOpDeferred(op)
			fid[[2]int{stage, m}] = op.ID
		}
	}
	// Pass 2: all backwards in stage-descending order.
	for stage := d - 1; stage >= 0; stage-- {
		for m := 0; m < n; m++ {
			op := &Op{
				Kind: Backward, Device: stage, Stage: stage, MicroBatch: m,
				Step: 0, Duration: cfg.Costs.Backward,
			}
			if stage < d-1 {
				op.Deps = append(op.Deps, bid[[2]int{stage + 1, m}])
			} else {
				op.Deps = append(op.Deps, fid[[2]int{stage, m}])
			}
			s.addOpDeferred(op)
			bid[[2]int{stage, m}] = op.ID
		}
	}
	// Device order: warmup of D-stage forwards, then strict 1F1B with NO
	// flush or cooldown barrier between "steps".
	for stage := 0; stage < d; stage++ {
		warmup := d - stage // one in-flight activation per downstream stage
		if warmup > n {
			warmup = n
		}
		for m := 0; m < warmup; m++ {
			s.Order[stage] = append(s.Order[stage], fid[[2]int{stage, m}])
		}
		fNext, bNext := warmup, 0
		for fNext < n || bNext < n {
			if bNext < n {
				s.Order[stage] = append(s.Order[stage], bid[[2]int{stage, bNext}])
				bNext++
			}
			if fNext < n {
				s.Order[stage] = append(s.Order[stage], fid[[2]int{stage, fNext}])
				fNext++
			}
		}
	}
	return s.seal()
}

// WeightStaleness returns, for an asynchronous schedule, the maximum number
// of optimizer updates that can land between a micro-batch's forward and
// its backward on the given stage — the parameter-version lag m of
// Appendix C.1 (θ_{t+1} = θ_t − η g_{t−m}). For PipeDream's weight
// stashing, this equals the number of other micro-batches in flight at
// that stage; it is largest (D−1) at stage 0 and zero at the last stage.
func WeightStaleness(stage, stages int) int {
	lag := stages - 1 - stage
	if lag < 0 {
		return 0
	}
	return lag
}
