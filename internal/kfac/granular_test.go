package kfac

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The factor-granular path the pipeline executor uses — SetFactors with
// externally accumulated products followed by per-factor InvertFactor —
// must reproduce the monolithic UpdateCurvature + UpdateInverses path
// exactly.
func TestGranularPathMatchesMonolithic(t *testing.T) {
	rng := tensor.NewRNG(42)
	build := func() *nn.Dense { return nn.NewDense("probe", 6, 4, tensor.NewRNG(1)) }
	runLayer := func(l *nn.Dense) {
		x := tensor.RandN(rng, 8, 6, 1)
		y := l.Forward(x)
		g := tensor.RandN(rng, y.Rows, y.Cols, 0.1)
		l.Backward(g)
	}
	opts := Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}
	const lossScale = 5.0

	// Monolithic reference.
	l1 := build()
	p1 := NewPreconditioner([]*nn.Dense{l1}, opts)
	rng = tensor.NewRNG(42)
	runLayer(l1)
	if err := p1.UpdateCurvature(lossScale); err != nil {
		t.Fatal(err)
	}
	if err := p1.UpdateInverses(); err != nil {
		t.Fatal(err)
	}

	// Granular path over identical statistics.
	l2 := build()
	p2 := NewPreconditioner([]*nn.Dense{l2}, opts)
	rng = tensor.NewRNG(42)
	runLayer(l2)
	acts, grads, ok := l2.KFACStats()
	if !ok {
		t.Fatal("no stats captured")
	}
	n := float64(acts.Rows)
	newA := tensor.TMatMul(acts, acts)
	newA.ScaleInPlace(1 / n)
	newB := tensor.TMatMul(grads, grads)
	newB.ScaleInPlace(lossScale * lossScale / n)
	if err := p2.SetFactors(0, newA, newB); err != nil {
		t.Fatal(err)
	}
	if err := p2.InvertFactor(0, false); err != nil {
		t.Fatal(err)
	}
	if err := p2.InvertFactor(0, true); err != nil {
		t.Fatal(err)
	}

	s1, s2 := p1.States()[0], p2.States()[0]
	for _, pair := range []struct {
		name string
		a, b *tensor.Matrix
	}{
		{"A", s1.A, s2.A}, {"B", s1.B, s2.B},
		{"AInv", s1.AInv, s2.AInv}, {"BInv", s1.BInv, s2.BInv},
	} {
		if !pair.a.AllClose(pair.b, 1e-12) {
			t.Fatalf("%s differs between granular and monolithic paths (max diff %g)",
				pair.name, pair.a.Sub(pair.b).MaxAbs())
		}
	}
	if s2.CurvatureUpdates != 1 || s2.InverseUpdates != 1 {
		t.Fatalf("granular counters: curvature %d, inverses %d, want 1/1",
			s2.CurvatureUpdates, s2.InverseUpdates)
	}
}

func TestSetFactorsValidation(t *testing.T) {
	l := nn.NewDense("probe", 3, 2, tensor.NewRNG(1))
	p := NewPreconditioner([]*nn.Dense{l}, DefaultOptions())
	if err := p.SetFactors(1, tensor.Zeros(3, 3), tensor.Zeros(2, 2)); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := p.SetFactors(0, nil, tensor.Zeros(2, 2)); err == nil {
		t.Fatal("expected nil-factor error")
	}
	if err := p.SetFactors(0, tensor.Zeros(2, 2), tensor.Zeros(2, 2)); err == nil {
		t.Fatal("expected shape error")
	}
	if err := p.InvertFactor(0, false); err == nil {
		t.Fatal("expected no-curvature error")
	}
	if err := p.InvertFactor(2, true); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// InvertFactor must reset staleness just like a full refresh.
func TestInvertFactorResetsAge(t *testing.T) {
	l := nn.NewDense("probe", 3, 2, tensor.NewRNG(1))
	p := NewPreconditioner([]*nn.Dense{l}, Options{Damping: 1e-2})
	a := tensor.Zeros(3, 3).AddDiagonal(1)
	b := tensor.Zeros(2, 2).AddDiagonal(1)
	if err := p.SetFactors(0, a, b); err != nil {
		t.Fatal(err)
	}
	if err := p.InvertFactor(0, false); err != nil {
		t.Fatal(err)
	}
	if err := p.InvertFactor(0, true); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(tensor.NewRNG(3), 4, 3, 1)
	y := l.Forward(x)
	l.Backward(tensor.RandN(tensor.NewRNG(4), y.Rows, y.Cols, 1))
	if n := p.Precondition(); n != 1 {
		t.Fatalf("preconditioned %d layers, want 1", n)
	}
	if p.MaxInverseAge() != 1 {
		t.Fatalf("age %d, want 1", p.MaxInverseAge())
	}
	if err := p.InvertFactor(0, true); err != nil {
		t.Fatal(err)
	}
	if p.MaxInverseAge() != 0 {
		t.Fatalf("age %d after refresh, want 0", p.MaxInverseAge())
	}
	if math.IsNaN(p.States()[0].BInv.Data[0]) {
		t.Fatal("NaN inverse")
	}
}

// Inversion refreshes ping-pong two retained buffers per factor: a refresh
// writes the spare and then swaps the pointer, so whoever still holds the
// previous inverse keeps reading a complete matrix; a failed refresh leaves
// the cached inverse in place.
func TestInverseRefreshPingPong(t *testing.T) {
	rng := tensor.NewRNG(7)
	l := nn.NewDense("probe", 6, 4, rng)
	p := NewPreconditioner([]*nn.Dense{l}, DefaultOptions())
	step := func() {
		t.Helper()
		l.Backward(tensor.RandN(rng, 8, 4, 0.1))
		if err := p.UpdateCurvature(1); err != nil {
			t.Fatal(err)
		}
	}
	l.Forward(tensor.RandN(rng, 8, 6, 1))
	step()
	s := p.States()[0]
	if err := p.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	first, firstVals := s.AInv, s.AInv.Clone()
	step()
	if err := p.InvertFactor(0, false); err != nil {
		t.Fatal(err)
	}
	if s.AInv == first {
		t.Fatal("refresh wrote the live inverse in place")
	}
	if !first.Equal(firstVals) {
		t.Fatal("refresh clobbered the previous inverse a reader may still hold")
	}
	step()
	if err := p.InvertFactor(0, false); err != nil {
		t.Fatal(err)
	}
	if s.AInv != first {
		t.Fatal("third refresh did not reuse the first buffer")
	}
	// A poisoned factor fails the refresh; the cached inverse stays.
	s.A.Data[0] = math.NaN()
	cur, curVals := s.AInv, s.AInv.Clone()
	if err := p.InvertFactor(0, false); err == nil {
		t.Fatal("expected an error from a NaN factor")
	}
	if s.AInv != cur || !cur.Equal(curVals) {
		t.Fatal("failed refresh disturbed the cached inverse")
	}
}
