// Package kfac implements Kronecker-Factored Approximate Curvature
// (Martens & Grosse, 2015) as described in §2.3 of the PipeFisher paper:
// per-layer Kronecker factors A_l = ⟨a a^T⟩ and B_l = ⟨e e^T⟩ estimated from
// mini-batch activations and error signals, Cholesky-based inversion with
// factored Tikhonov damping, and gradient preconditioning
// ĝ_l = B_l⁻¹ G_l A_l⁻¹ via the (A ⊗ B)⁻¹ vec identity.
//
// The package deliberately separates the three kinds of K-FAC work the
// paper schedules independently (curvature, inversion, precondition) so the
// pipeline scheduler can interleave them with forward/backward work, and so
// stale inverses can precondition fresh gradients exactly as in §3.1.
package kfac

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrNoStats is returned when curvature work is requested for a layer that
// has not captured activation/error statistics.
var ErrNoStats = errors.New("kfac: layer has no captured statistics (enable CaptureKFAC and run forward+backward)")

// LayerState holds the K-FAC state of a single fully-connected layer.
type LayerState struct {
	// Layer is the underlying dense layer whose gradients are
	// preconditioned.
	Layer *nn.Dense
	// A and B are the exponential moving averages of the Kronecker
	// factors: A is din x din, B is dout x dout.
	A, B *tensor.Matrix
	// AInv and BInv are the cached inverses used for preconditioning; they
	// may be stale relative to A and B (the paper refreshes them every few
	// pipeline steps).
	AInv, BInv *tensor.Matrix
	// CurvatureUpdates counts curvature refreshes; InverseUpdates counts
	// inversion refreshes. InverseAge counts preconditioning steps since
	// the inverses were last refreshed (the "staleness" of §3.1).
	CurvatureUpdates int
	InverseUpdates   int
	InverseAge       int

	// preTmp is the retained B⁻¹G intermediate of Precondition, so the
	// per-step preconditioning allocates nothing in steady state.
	preTmp *tensor.Matrix
	// spareA and spareB are the inversion targets: each refresh writes the
	// spare buffer and then swaps it with the cached inverse, so a reader
	// of AInv/BInv never sees a half-written matrix and steady-state
	// refreshes allocate nothing.
	spareA, spareB *tensor.Matrix
}

// HasInverses reports whether the layer has usable cached inverses.
func (s *LayerState) HasInverses() bool { return s.AInv != nil && s.BInv != nil }

// Options configure a Preconditioner.
type Options struct {
	// Damping is the Tikhonov damping λ added (in factored form) before
	// inversion. Typical values 1e-3..1e-1.
	Damping float64
	// StatDecay is the EMA decay for the Kronecker factors; 0 replaces the
	// factors entirely at each curvature refresh.
	StatDecay float64
	// UsePiDamping enables the factored damping split of Martens & Grosse:
	// A gets π·sqrt(λ) and B gets sqrt(λ)/π with π = sqrt((tr A/din)/(tr B/dout)).
	UsePiDamping bool
}

// DefaultOptions mirror common K-FAC practice for transformer pretraining.
func DefaultOptions() Options {
	return Options{Damping: 1e-2, StatDecay: 0.95, UsePiDamping: true}
}

// Preconditioner manages the K-FAC state of a set of dense layers.
type Preconditioner struct {
	opts   Options
	states []*LayerState
}

// NewPreconditioner registers the given layers for K-FAC and enables their
// statistics capture.
func NewPreconditioner(layers []*nn.Dense, opts Options) *Preconditioner {
	if opts.Damping < 0 {
		panic(fmt.Sprintf("kfac: negative damping %g", opts.Damping))
	}
	if opts.StatDecay < 0 || opts.StatDecay >= 1 {
		panic(fmt.Sprintf("kfac: StatDecay must be in [0,1), got %g", opts.StatDecay))
	}
	p := &Preconditioner{opts: opts}
	for _, l := range layers {
		l.CaptureKFAC = true
		p.states = append(p.states, &LayerState{Layer: l})
	}
	return p
}

// States exposes the per-layer K-FAC state (read-mostly; used by tests and
// the scheduler).
func (p *Preconditioner) States() []*LayerState { return p.states }

// NumLayers returns the number of registered layers.
func (p *Preconditioner) NumLayers() int { return len(p.states) }

// UpdateCurvature computes fresh Kronecker factors for every registered
// layer from the statistics captured during the latest forward/backward.
//
// lossScale is the number of terms the training loss averaged over (e.g.
// the count of masked tokens): with a mean-reduced loss the captured output
// gradients are dL/dy_i = (1/M) dl_i/dy_i, so the per-example errors of the
// empirical Fisher (§2.2) are e_i = M·(dL/dy_i) and
// B_l = (1/N) Σ e e^T = (M²/N) · Ḡ^T Ḡ where Ḡ stacks the captured rows.
func (p *Preconditioner) UpdateCurvature(lossScale float64) error {
	for _, s := range p.states {
		if err := p.updateLayerCurvature(s, lossScale); err != nil {
			return fmt.Errorf("layer %q: %w", s.Layer.Name, err)
		}
	}
	return nil
}

func (p *Preconditioner) updateLayerCurvature(s *LayerState, lossScale float64) error {
	acts, grads, ok := s.Layer.KFACStats()
	if !ok {
		return ErrNoStats
	}
	n := float64(acts.Rows)
	if n == 0 {
		return ErrNoStats
	}
	// A = (1/N) X^T X ; B = (M²/N) Ḡ^T Ḡ  (see UpdateCurvature). The
	// products are pooled temporaries: foldFactors copies them into the
	// retained EMA state, so they go straight back to the workspace pool.
	newA := tensor.TMatMul(acts, acts)
	newA.ScaleInPlace(1 / n)
	newB := tensor.TMatMul(grads, grads)
	newB.ScaleInPlace(lossScale * lossScale / n)
	p.foldFactors(s, newA, newB)
	tensor.Put(newA)
	tensor.Put(newB)
	return nil
}

// foldFactors applies one curvature refresh to the layer's EMA state: the
// factors are replaced outright on the first refresh (or with zero decay)
// and decay-blended otherwise. Both curvature entry points —
// UpdateCurvature's capture-buffer path and the executor's SetFactors —
// fold through here so their semantics cannot diverge. newA and newB are
// never retained — they are copied into layer-owned EMA buffers, so
// callers passing pooled matrices may Put them immediately after.
func (p *Preconditioner) foldFactors(s *LayerState, newA, newB *tensor.Matrix) {
	decay := p.opts.StatDecay
	switch {
	case s.A == nil:
		s.A, s.B = newA.Clone(), newB.Clone()
	case decay == 0:
		s.A.CopyFrom(newA)
		s.B.CopyFrom(newB)
	default:
		s.A.ScaleInPlace(decay)
		s.A.AddScaledInPlace(1-decay, newA)
		s.B.ScaleInPlace(decay)
		s.B.AddScaledInPlace(1-decay, newB)
	}
	s.CurvatureUpdates++
}

// SetFactors applies one curvature refresh to the layer at index from
// externally accumulated full-batch factors: newA = (1/N) Σ a a^T and
// newB = (M²/N) Σ ē ē^T, exactly the quantities UpdateCurvature derives from
// the capture buffers. The pipeline execution engine uses this entry point
// because it accumulates the per-micro-batch partial products inside the
// scheduled Curvature ops (bubble work) and only folds them into the EMA
// here, once every micro-batch's contribution is in. The factors remain
// owned by the caller (pooled callers may Put them right after).
func (p *Preconditioner) SetFactors(index int, newA, newB *tensor.Matrix) error {
	if index < 0 || index >= len(p.states) {
		return fmt.Errorf("kfac: layer index %d out of range [0,%d)", index, len(p.states))
	}
	if newA == nil || newB == nil {
		return fmt.Errorf("kfac: SetFactors requires both factors, got A=%v B=%v", newA != nil, newB != nil)
	}
	s := p.states[index]
	if newA.Rows != s.Layer.DIn() || newB.Rows != s.Layer.DOut() {
		return fmt.Errorf("kfac: layer %q factor shapes %dx%d/%dx%d do not match din=%d dout=%d",
			s.Layer.Name, newA.Rows, newA.Cols, newB.Rows, newB.Cols, s.Layer.DIn(), s.Layer.DOut())
	}
	p.foldFactors(s, newA, newB)
	return nil
}

// InvertFactor refreshes a single cached inverse (B when factorB is set,
// A otherwise) of the layer at index — the atomic unit of the paper's
// inversion work, one scheduled Inversion op per Kronecker factor. Both
// factors must hold curvature (the engine orders inversion after the
// layer's full curvature refresh, since the factored damping couples the
// pair through their traces). InverseUpdates counts once per refreshed
// pair, on the B factor.
func (p *Preconditioner) InvertFactor(index int, factorB bool) error {
	if index < 0 || index >= len(p.states) {
		return fmt.Errorf("kfac: layer index %d out of range [0,%d)", index, len(p.states))
	}
	s := p.states[index]
	if s.A == nil || s.B == nil {
		return fmt.Errorf("kfac: no curvature for layer %q yet", s.Layer.Name)
	}
	dampA, dampB := p.factoredDamping(s)
	if factorB {
		if err := invertIntoSpare(&s.spareB, s.B, dampB); err != nil {
			return fmt.Errorf("inverting B of %q: %w", s.Layer.Name, err)
		}
		s.BInv, s.spareB = s.spareB, s.BInv
		s.InverseUpdates++
	} else {
		if err := invertIntoSpare(&s.spareA, s.A, dampA); err != nil {
			return fmt.Errorf("inverting A of %q: %w", s.Layer.Name, err)
		}
		s.AInv, s.spareA = s.spareA, s.AInv
	}
	s.InverseAge = 0
	return nil
}

// invertIntoSpare computes (m + damp*I)⁻¹ into the layer's spare buffer
// (allocated on first use); the caller swaps it with the cached inverse
// once every inverse it refreshes has succeeded.
func invertIntoSpare(spare **tensor.Matrix, m *tensor.Matrix, damp float64) error {
	*spare = tensor.Reuse(*spare, m.Rows, m.Cols)
	return tensor.SPDInverseInto(*spare, m, damp)
}

// UpdateInverses refreshes the cached inverses of every registered layer,
// one InvertFactor per factor, A before B — the path the engine's Inversion
// ops take.
func (p *Preconditioner) UpdateInverses() error {
	for i := range p.states {
		for _, factorB := range []bool{false, true} {
			if err := p.InvertFactor(i, factorB); err != nil {
				return err
			}
		}
	}
	return nil
}

// factoredDamping splits the damping λ between the two factors. With
// UsePiDamping the split follows Martens & Grosse's π heuristic; otherwise
// each factor receives sqrt(λ) so that the implied damping on A ⊗ B is λ
// (plus cross terms).
func (p *Preconditioner) factoredDamping(s *LayerState) (dampA, dampB float64) {
	lambda := p.opts.Damping
	root := math.Sqrt(lambda)
	if !p.opts.UsePiDamping {
		return root, root
	}
	trA := s.A.Trace() / float64(s.A.Rows)
	trB := s.B.Trace() / float64(s.B.Rows)
	if trA <= 0 || trB <= 0 {
		return root, root
	}
	pi := math.Sqrt(trA / trB)
	return root * pi, root / pi
}

// Precondition replaces each registered layer's weight gradient G_l with
// B_l⁻¹ G_l A_l⁻¹ using the cached (possibly stale) inverses, and
// increments their staleness counters. Layers without cached inverses are
// left untouched — exactly the paper's rule that the first preconditioning
// uses whatever inverses exist ("the first precondition ... is performed
// with the stale inverse matrices calculated at previous steps", Figure 1).
// It returns the number of layers that were preconditioned.
func (p *Preconditioner) Precondition() int {
	var done int
	for _, s := range p.states {
		if !s.HasInverses() {
			continue
		}
		g := s.Layer.GW // dout x din
		// B⁻¹ G into the retained intermediate, then (B⁻¹G) A⁻¹ straight
		// back into G — no per-step allocation.
		s.preTmp = tensor.Reuse(s.preTmp, g.Rows, g.Cols)
		tensor.MatMulInto(s.preTmp, s.BInv, g)
		tensor.MatMulInto(g, s.preTmp, s.AInv)
		s.InverseAge++
		done++
	}
	return done
}

// PreconditionedGradient returns B⁻¹ G A⁻¹ for the layer at index without
// mutating its gradient (reference computation for tests).
func (p *Preconditioner) PreconditionedGradient(index int) (*tensor.Matrix, error) {
	if index < 0 || index >= len(p.states) {
		return nil, fmt.Errorf("kfac: layer index %d out of range", index)
	}
	s := p.states[index]
	if !s.HasInverses() {
		return nil, fmt.Errorf("kfac: layer %q has no inverses", s.Layer.Name)
	}
	tmp := tensor.MatMul(s.BInv, s.Layer.GW)
	out := tensor.MatMul(tmp, s.AInv)
	tensor.Put(tmp)
	return out, nil
}

// MaxInverseAge returns the largest staleness among layers that have
// inverses (0 if none do).
func (p *Preconditioner) MaxInverseAge() int {
	var mx int
	for _, s := range p.states {
		if s.HasInverses() && s.InverseAge > mx {
			mx = s.InverseAge
		}
	}
	return mx
}
