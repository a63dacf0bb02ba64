// Package optim provides the optimizers and learning-rate schedules used in
// the paper's evaluation: SGD (with momentum), Adam, LAMB in NVIDIA's
// NVLAMB variant (the paper's baseline, §4), and the warmup + polynomial
// decay schedule of Appendix B.2 (Figure 8). The K-FAC "optimizer" of the
// paper is K-FAC preconditioning (package kfac) composed with one of these
// base optimizers.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update with the given learning rate.
	Step(lr float64)
	// Params returns the parameters the optimizer manages.
	Params() []*nn.Param
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// weight decay.
type SGD struct {
	params   []*nn.Param
	Momentum float64
	// WeightDecay is the decoupled L2 coefficient applied to weights.
	WeightDecay float64

	velocity [][]float64
}

// NewSGD builds an SGD optimizer over params.
func NewSGD(params []*nn.Param, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, Momentum: momentum, WeightDecay: weightDecay}
	s.velocity = make([][]float64, len(params))
	for i, p := range params {
		s.velocity[i] = make([]float64, len(p.Value.Data))
	}
	return s
}

// Step applies w -= lr * (v) with v = momentum*v + grad + wd*w.
func (s *SGD) Step(lr float64) {
	for i, p := range s.params {
		v := s.velocity[i]
		for j := range p.Value.Data {
			g := p.Grad.Data[j] + s.WeightDecay*p.Value.Data[j]
			v[j] = s.Momentum*v[j] + g
			p.Value.Data[j] -= lr * v[j]
		}
	}
}

// Params returns the managed parameters.
func (s *SGD) Params() []*nn.Param { return s.params }

// Adam implements Adam with bias correction and decoupled weight decay
// (AdamW-style when WeightDecay > 0).
type Adam struct {
	params      []*nn.Param
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	moments
}

// NewAdam builds an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, eps=1e-8).
func NewAdam(params []*nn.Param, weightDecay float64) *Adam {
	return &Adam{params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		moments: newMoments(params)}
}

// Step applies one Adam update. It allocates nothing.
func (a *Adam) Step(lr float64) {
	s := a.advance(a.Beta1, a.Beta2, a.Eps, a.WeightDecay, 1)
	for i, p := range a.params {
		update := a.update[:len(p.Value.Data)]
		tensor.AdamUpdate(update, a.m[i], a.v[i], p.Grad.Data, p.Value.Data, s)
		tensor.SubScaled(p.Value.Data, update, lr)
	}
}

// Params returns the managed parameters.
func (a *Adam) Params() []*nn.Param { return a.params }

// moments is the state Adam and LAMB share: the bias-correction step
// counter, first and second moments per parameter, and the update scratch
// between the pass that computes a parameter's update (and, for LAMB, its
// norm) and the pass that applies it, sized to the largest parameter.
type moments struct {
	step   int
	m, v   [][]float64
	update []float64
}

func newMoments(params []*nn.Param) moments {
	mo := moments{m: make([][]float64, len(params)), v: make([][]float64, len(params))}
	largest := 0
	for i, p := range params {
		mo.m[i] = make([]float64, len(p.Value.Data))
		mo.v[i] = make([]float64, len(p.Value.Data))
		largest = max(largest, len(p.Value.Data))
	}
	mo.update = make([]float64, largest)
	return mo
}

// advance counts one more step and returns its scalars for
// tensor.AdamUpdate.
func (mo *moments) advance(beta1, beta2, eps, weightDecay, preScale float64) tensor.AdamStep {
	mo.step++
	return tensor.AdamStep{
		Beta1: beta1, Beta2: beta2, Eps: eps, WeightDecay: weightDecay, PreScale: preScale,
		BC1: 1 - math.Pow(beta1, float64(mo.step)),
		BC2: 1 - math.Pow(beta2, float64(mo.step)),
	}
}

// LAMB implements the layer-wise adaptive large-batch optimizer of You et
// al. (2020) in NVIDIA's NVLAMB flavor, the paper's baseline: global
// gradient pre-normalization, Adam statistics, then a per-parameter trust
// ratio ||w|| / ||update|| scaling.
type LAMB struct {
	params      []*nn.Param
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	// MaxTrustRatio clips the trust ratio (NVLAMB uses 10).
	MaxTrustRatio float64
	// PreNormalize divides all gradients by the global gradient norm when
	// it exceeds 1 (the "NV" part of NVLAMB).
	PreNormalize bool

	moments
}

// NewLAMB builds an NVLAMB optimizer with the paper's hyperparameters
// (β1=0.9, β2=0.999, eps=1e-6, trust ratio clip 10, pre-normalization on).
func NewLAMB(params []*nn.Param, weightDecay float64) *LAMB {
	return &LAMB{
		params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-6,
		WeightDecay: weightDecay, MaxTrustRatio: 10, PreNormalize: true,
		moments: newMoments(params),
	}
}

// Step applies one NVLAMB update. It allocates nothing.
func (l *LAMB) Step(lr float64) {
	preScale := 1.0
	if l.PreNormalize {
		if gn := nn.GradNorm(l.params); gn > 1 {
			preScale = 1 / gn
		}
	}
	s := l.advance(l.Beta1, l.Beta2, l.Eps, l.WeightDecay, preScale)
	for i, p := range l.params {
		update := l.update[:len(p.Value.Data)]
		wNorm, uNorm := tensor.AdamUpdate(update, l.m[i], l.v[i], p.Grad.Data, p.Value.Data, s)
		wNorm = math.Sqrt(wNorm)
		uNorm = math.Sqrt(uNorm)
		trust := 1.0
		if wNorm > 0 && uNorm > 0 {
			trust = wNorm / uNorm
			if trust > l.MaxTrustRatio {
				trust = l.MaxTrustRatio
			}
		}
		tensor.SubScaled(p.Value.Data, update, lr*trust)
	}
}

// Params returns the managed parameters.
func (l *LAMB) Params() []*nn.Param { return l.params }

// Schedule maps a step index to a learning rate.
type Schedule interface {
	// LR returns the learning rate to use at the given 0-based step.
	LR(step int) float64
}

// PolyDecaySchedule is the NVLAMB schedule of Appendix B.2: linear warmup
// for WarmupSteps, then polynomial decay
// η_t = BaseLR · (1 − t/TotalSteps)^Power. The paper uses Power 0.5,
// TotalSteps 7038, warmup 2000 for NVLAMB and 600 for K-FAC (Figure 8).
type PolyDecaySchedule struct {
	BaseLR      float64
	WarmupSteps int
	TotalSteps  int
	Power       float64
}

// NewNVLAMBSchedule returns the paper's BERT-Base Phase-1 NVLAMB schedule.
func NewNVLAMBSchedule() PolyDecaySchedule {
	return PolyDecaySchedule{BaseLR: 6e-3, WarmupSteps: 2000, TotalSteps: 7038, Power: 0.5}
}

// NewKFACSchedule returns the paper's K-FAC schedule: identical but with
// warmup shortened to 600 steps, "resulting in larger learning rates than
// NVLAMB until the 2,000th step" (§4).
func NewKFACSchedule() PolyDecaySchedule {
	return PolyDecaySchedule{BaseLR: 6e-3, WarmupSteps: 600, TotalSteps: 7038, Power: 0.5}
}

// LR implements Schedule.
func (s PolyDecaySchedule) LR(step int) float64 {
	if step < 0 {
		panic(fmt.Sprintf("optim: negative step %d", step))
	}
	if s.WarmupSteps > 0 && step < s.WarmupSteps {
		return s.BaseLR * float64(step+1) / float64(s.WarmupSteps)
	}
	if step >= s.TotalSteps {
		return 0
	}
	frac := 1 - float64(step)/float64(s.TotalSteps)
	return s.BaseLR * math.Pow(frac, s.Power)
}

// ConstantSchedule always returns the same learning rate.
type ConstantSchedule struct{ Value float64 }

// LR implements Schedule.
func (c ConstantSchedule) LR(int) float64 { return c.Value }

// StepsToReach returns the first step whose smoothed loss is at or below
// target, or -1 if never reached. Smoothing is a trailing 10-step mean,
// standing in for the paper's Butterworth filtfilt.
func StepsToReach(losses []float64, target float64) int {
	const window = 10
	for t := range losses {
		lo := max(t-window+1, 0)
		var s float64
		for _, l := range losses[lo : t+1] {
			s += l
		}
		if s/float64(t-lo+1) <= target {
			return t
		}
	}
	return -1
}

// FinalLoss is a run's smoothed final loss: the mean of its last 10% of
// steps (at least one).
func FinalLoss(losses []float64) float64 {
	tail := max(len(losses)/10, 1)
	var s float64
	for _, l := range losses[len(losses)-tail:] {
		s += l
	}
	return s / float64(tail)
}
