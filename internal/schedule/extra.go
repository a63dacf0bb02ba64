package schedule

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// This file implements the paper's §5 generalization: "the application of
// the idea of assigning extra work to bubbles in pipelines for auxiliary
// benefits is not limited to K-FAC". Two of the paper's proposed
// directions are implemented:
//
//   - Shampoo (Gupta et al., 2018): identical Kronecker-factor shapes to
//     K-FAC, but each factor needs an eigendecomposition instead of a
//     Cholesky inversion. AssignShampoo reuses the K-FAC assignment with
//     inversion units scaled up and split across bubbles, exactly the
//     "divide the work for a single matrix into multiple pieces" strategy
//     §5 calls for.
//
//   - SAM (Foret et al., 2021): one extra forward and backward per
//     micro-batch per step to estimate sharpness, i.e. potentially twice
//     the work of SGD. AssignSAM packs the extra passes into bubbles,
//     respecting the pipeline dependencies of the second pass.

// ShampooEigenCostFactor is the default cost ratio of an eigendecomposition
// to a Cholesky inversion of the same matrix (a QR-iteration
// eigendecomposition costs roughly an order of magnitude more).
const ShampooEigenCostFactor = 12

// AssignShampoo runs the PipeFisher work assignment for Shampoo-style
// extra work: second-moment (curvature-shaped) statistics per micro-batch
// plus per-factor eigendecompositions. The returned Result's
// RefreshSteps is the preconditioner refresh interval.
func AssignShampoo(cfg Config) (*Result, error) {
	if cfg.InversionCostMultiplier == 0 {
		cfg.InversionCostMultiplier = ShampooEigenCostFactor
	}
	return Assign(cfg)
}

// SAMResult reports the outcome of packing SAM's extra passes.
type SAMResult struct {
	// Timeline is the augmented timeline with the extra passes packed.
	Timeline *pipeline.Timeline
	// VanillaTimeline is the base schedule.
	VanillaTimeline *pipeline.Timeline
	// Utilization and VanillaUtilization compare colored time.
	Utilization        float64
	VanillaUtilization float64
	// HiddenFraction is the share of one step's extra work that fits into
	// one step's bubbles (1.0 = SAM is free, the "double the utilization"
	// best case of §5).
	HiddenFraction float64
	// ExtraWorkTime is one step's extra forward+backward time per device
	// stage.
	ExtraWorkTime hardware.Microseconds
	// Unassigned counts extra-pass pieces that did not fit in the window.
	Unassigned int
}

// AssignSAM packs SAM's second forward/backward pass into the bubbles of
// one pipeline step (spilling into following steps when they do not fit —
// in that case SAM is not fully hidden and HiddenFraction < 1).
func AssignSAM(cfg Config) (*SAMResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	const steps = 3
	vanillaSched, err := buildBase(cfg, steps, false)
	if err != nil {
		return nil, err
	}
	// The second pass below chains stage s-1 -> s -> s+1 within one replica
	// stream: one owner per (stage, replica).
	owners := vanillaSched.Placement.Owners
	if p := vanillaSched.Placement.Pipelines; p != 1 {
		return nil, fmt.Errorf("schedule: AssignSAM needs a single-pipeline schedule, %s runs %d", cfg.Method, p)
	}
	base, err := pipeline.Run(vanillaSched)
	if err != nil {
		return nil, err
	}

	out := overlay(base, "+SAM")
	free := freshFree(base)

	w := cfg.DataParallelWidth
	// The second pass runs after the first pass's gradient exists: extra
	// forward of (stage, micro) needs the first-pass backward of that
	// micro-batch at that stage AND the extra forward of the previous
	// stage; the extra backward mirrors the usual reverse dependencies.
	type key struct{ r, stage, m int }
	placedEnd := make(map[key]hardware.Microseconds)  // extra forward ends
	placedBEnd := make(map[key]hardware.Microseconds) // extra backward ends
	unassigned := 0
	place := func(dev int, kind pipeline.WorkKind, stage, m int, ready, dur hardware.Microseconds) (hardware.Microseconds, bool) {
		pieces, ok := free[dev].place(ready, dur, false)
		if !ok {
			unassigned++
			return 0, false
		}
		addPieces(out, pieces, pipeline.Op{Kind: kind, Device: dev, Stage: stage, MicroBatch: m, Step: -1})
		return pieces[len(pieces)-1].End, true
	}
	// Forwards in stage order, then backwards in reverse stage order.
	for r := 0; r < w; r++ {
		for stage := 0; stage < cfg.Stages; stage++ {
			dev := owners[stage][r].Device
			for m := 0; m < cfg.MicroBatches; m++ {
				bEv, ok := findStepEvent(base, pipeline.Backward, stage, m, dev)
				if !ok {
					continue
				}
				ready := bEv.End
				if stage > 0 {
					if prev, ok := placedEnd[key{r, stage - 1, m}]; ok && prev > ready {
						ready = prev
					}
				}
				if end, ok := place(dev, pipeline.Forward, stage, m, ready, cfg.Costs.Forward); ok {
					placedEnd[key{r, stage, m}] = end
				}
			}
		}
		for stage := cfg.Stages - 1; stage >= 0; stage-- {
			dev := owners[stage][r].Device
			for m := 0; m < cfg.MicroBatches; m++ {
				fEnd, ok := placedEnd[key{r, stage, m}]
				if !ok {
					continue
				}
				ready := fEnd
				if stage < cfg.Stages-1 {
					if next, ok := placedBEnd[key{r, stage + 1, m}]; ok && next > ready {
						ready = next
					}
				}
				if end, ok := place(dev, pipeline.Backward, stage, m, ready, cfg.Costs.Backward); ok {
					placedBEnd[key{r, stage, m}] = end
				}
			}
		}
	}
	sortEvents(out)

	res := &SAMResult{
		Timeline:        out,
		VanillaTimeline: base,
		Unassigned:      unassigned,
		ExtraWorkTime:   hardware.Microseconds(cfg.MicroBatches) * (cfg.Costs.Forward + cfg.Costs.Backward),
	}
	res.VanillaUtilization = base.Utilization()
	res.Utilization = out.Utilization()
	// Hidden fraction: the second pass for step 0's gradients becomes
	// ready only as step 0's backwards finish, so in steady state it hides
	// in the bubbles of the *following* step. Count the extra work that
	// completed within one extra step window (by the end of step 1): if
	// everything fits there, SAM adds no wall-clock time.
	var hiddenInWindow hardware.Microseconds
	window := base.StepEnd[0]
	if len(base.StepEnd) > 1 {
		window = base.StepEnd[1]
	}
	for d := 0; d < out.Devices; d++ {
		for _, e := range out.Events[d] {
			if e.Op.Step == -1 && e.Start < window {
				hiddenInWindow += min(e.End, window) - e.Start
			}
		}
	}
	perStepExtra := res.ExtraWorkTime * hardware.Microseconds(cfg.Stages*w)
	if perStepExtra > 0 {
		res.HiddenFraction = float64(hiddenInWindow) / float64(perStepExtra)
		if res.HiddenFraction > 1 {
			res.HiddenFraction = 1
		}
	}
	return res, nil
}
