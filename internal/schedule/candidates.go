package schedule

import (
	"fmt"
	"sort"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// Candidate is one point of the auto-tuner's schedule search space: the
// knobs that change how one refresh packs into pipeline bubbles without
// changing the math — schedule family, round length K, overlapped vs
// serialized rounds, and inversion sharding. It is also the shape a running
// engine reports (engine.Shape) and swaps to (engine.Reconfigure). The fixed
// dimensions (stage count, micro-batches, data-parallel width) are the
// machine topology; a running engine cannot swap those at a round boundary.
type Candidate struct {
	Method            string
	RefreshSteps      int
	Overlap           bool
	InversionParallel bool
}

// String renders the candidate the way run headers and tuner decisions
// print it, e.g. "1f1b/K2+overlap" or "chimera/K4+overlap+invpar".
func (c Candidate) String() string {
	s := fmt.Sprintf("%s/K%d", c.Method, c.RefreshSteps)
	if c.Overlap {
		s += "+overlap"
	}
	if c.InversionParallel {
		s += "+invpar"
	}
	return s
}

// Space bounds the candidate enumeration.
type Space struct {
	// Methods lists the schedule families to consider (default: all of
	// pipeline.Methods — chimera is dropped automatically when the fixed
	// topology violates its evenness constraints).
	Methods []string
	// MaxRefreshSteps bounds the round length K; candidates run K =
	// 1..MaxRefreshSteps (default 4, the paper's largest refresh window).
	MaxRefreshSteps int
	// Stages, MicroBatches, DataParallelWidth fix the machine topology the
	// candidates must run on.
	Stages            int
	MicroBatches      int
	DataParallelWidth int
}

// Enumerate lists the valid candidates of a search space. Invalid
// combinations are filtered here, not at prediction time: a family must be
// able to lay the topology out (pipeline.Feasible — chimera needs even
// stages and micro-batches), and inversion sharding needs a stage device
// group — W replicas x the family's pipelines — wider than one.
func Enumerate(sp Space) []Candidate {
	methods := sp.Methods
	if len(methods) == 0 {
		methods = pipeline.Methods()
	}
	maxK := sp.MaxRefreshSteps
	if maxK <= 0 {
		maxK = 4
	}
	w := sp.DataParallelWidth
	if w <= 0 {
		w = 1
	}
	var out []Candidate
	for _, m := range methods {
		if pipeline.Feasible(m, sp.Stages, sp.MicroBatches) != nil {
			continue
		}
		invpars := []bool{false}
		if w*pipeline.Pipelines(m) > 1 {
			invpars = append(invpars, true)
		}
		for k := 1; k <= maxK; k++ {
			for _, inv := range invpars {
				out = append(out, Candidate{Method: m, RefreshSteps: k, InversionParallel: inv})
				out = append(out, Candidate{Method: m, RefreshSteps: k, InversionParallel: inv, Overlap: true})
			}
		}
	}
	return out
}

// Prediction is one ranked candidate: the modeled steady-state cost of
// running it, derived by building the candidate's executable schedule
// against the (fitted) cost model and timing it in the simulator — the
// same op-list form the engine would execute, so the prediction and the
// execution share every packing decision.
type Prediction struct {
	Candidate Candidate
	// RoundMakespan is the simulated makespan of one full refresh round
	// (K steps with one refresh packed into the window's bubbles).
	RoundMakespan hardware.Microseconds
	// StepTime is RoundMakespan / K: the per-training-step cost that makes
	// candidates of different round lengths comparable — the ranking key.
	StepTime hardware.Microseconds
}

// Predict times one candidate under the base configuration's cost model.
// base supplies the fixed topology and Costs; the candidate's knobs
// override the corresponding fields.
func Predict(base Config, c Candidate) (Prediction, error) {
	cfg := base
	cfg.Method = c.Method
	cfg.RefreshSteps = c.RefreshSteps
	cfg.Overlap = c.Overlap
	cfg.CarryDepth = 0
	cfg.InversionParallel = c.InversionParallel
	s, err := Executable(cfg)
	if err != nil {
		return Prediction{}, err
	}
	tl, err := pipeline.Run(s)
	if err != nil {
		return Prediction{}, err
	}
	k := c.RefreshSteps
	if k < 1 {
		k = 1
	}
	return Prediction{
		Candidate:     c,
		RoundMakespan: tl.Makespan,
		StepTime:      (tl.Makespan + hardware.Microseconds(k) - 1) / hardware.Microseconds(k),
	}, nil
}

// RankCandidates predicts every candidate and returns them sorted by
// ascending per-step time. Candidates whose schedule fails to build are
// skipped (an empty result means none built). Ties break toward the
// simpler configuration — serialized before overlapped, smaller K, no inversion sharding, then method name — so the tuner never
// trades determinism-equivalent complexity for nothing: a measured-cost
// regime where overlap stops paying (the K=2 crossover in the committed
// engine baseline) ranks the serialized round first on equal predictions.
func RankCandidates(base Config, cands []Candidate) []Prediction {
	preds := make([]Prediction, 0, len(cands))
	for _, c := range cands {
		p, err := Predict(base, c)
		if err != nil {
			continue
		}
		preds = append(preds, p)
	}
	sort.SliceStable(preds, func(i, j int) bool {
		a, b := preds[i], preds[j]
		if a.StepTime != b.StepTime {
			return a.StepTime < b.StepTime
		}
		if a.Candidate.Overlap != b.Candidate.Overlap {
			return !a.Candidate.Overlap
		}
		if a.Candidate.RefreshSteps != b.Candidate.RefreshSteps {
			return a.Candidate.RefreshSteps < b.Candidate.RefreshSteps
		}
		if a.Candidate.InversionParallel != b.Candidate.InversionParallel {
			return !a.Candidate.InversionParallel
		}
		return a.Candidate.Method < b.Candidate.Method
	})
	return preds
}
