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

	step int
	m    [][]float64
	v    [][]float64
}

// NewAdam builds an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, eps=1e-8).
func NewAdam(params []*nn.Param, weightDecay float64) *Adam {
	a := &Adam{params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Value.Data))
		a.v[i] = make([]float64, len(p.Value.Data))
	}
	return a
}

// Step applies one Adam update.
func (a *Adam) Step(lr float64) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Value.Data {
			g := p.Grad.Data[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			upd := mHat/(math.Sqrt(vHat)+a.Eps) + a.WeightDecay*p.Value.Data[j]
			p.Value.Data[j] -= lr * upd
		}
	}
}

// Params returns the managed parameters.
func (a *Adam) Params() []*nn.Param { return a.params }

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

	step int
	m    [][]float64
	v    [][]float64
	// update holds one parameter's update between the pass that computes
	// its norm and the pass that applies it; sized to the largest parameter.
	update []float64
}

// NewLAMB builds an NVLAMB optimizer with the paper's hyperparameters
// (β1=0.9, β2=0.999, eps=1e-6, trust ratio clip 10, pre-normalization on).
func NewLAMB(params []*nn.Param, weightDecay float64) *LAMB {
	l := &LAMB{
		params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-6,
		WeightDecay: weightDecay, MaxTrustRatio: 10, PreNormalize: true,
	}
	l.m = make([][]float64, len(params))
	l.v = make([][]float64, len(params))
	largest := 0
	for i, p := range params {
		l.m[i] = make([]float64, len(p.Value.Data))
		l.v[i] = make([]float64, len(p.Value.Data))
		largest = max(largest, len(p.Value.Data))
	}
	l.update = make([]float64, largest)
	return l
}

// Step applies one NVLAMB update. It allocates nothing.
func (l *LAMB) Step(lr float64) {
	l.step++
	preScale := 1.0
	if l.PreNormalize {
		if gn := nn.GradNorm(l.params); gn > 1 {
			preScale = 1 / gn
		}
	}
	bc1 := 1 - math.Pow(l.Beta1, float64(l.step))
	bc2 := 1 - math.Pow(l.Beta2, float64(l.step))
	for i, p := range l.params {
		m, v := l.m[i], l.v[i]
		var wNorm, uNorm float64
		update := l.update[:len(p.Value.Data)]
		for j := range p.Value.Data {
			g := p.Grad.Data[j] * preScale
			m[j] = l.Beta1*m[j] + (1-l.Beta1)*g
			v[j] = l.Beta2*v[j] + (1-l.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			u := mHat/(math.Sqrt(vHat)+l.Eps) + l.WeightDecay*p.Value.Data[j]
			update[j] = u
			wNorm += p.Value.Data[j] * p.Value.Data[j]
			uNorm += u * u
		}
		wNorm = math.Sqrt(wNorm)
		uNorm = math.Sqrt(uNorm)
		trust := 1.0
		if wNorm > 0 && uNorm > 0 {
			trust = wNorm / uNorm
			if trust > l.MaxTrustRatio {
				trust = l.MaxTrustRatio
			}
		}
		scale := lr * trust
		for j := range p.Value.Data {
			p.Value.Data[j] -= scale * update[j]
		}
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
