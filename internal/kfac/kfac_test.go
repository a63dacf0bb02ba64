package kfac

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildLayer runs one forward/backward through a Dense layer with capture
// enabled and returns the layer plus the upstream gradient used.
func buildLayer(t *testing.T, rng *tensor.RNG, n, din, dout int) *nn.Dense {
	t.Helper()
	layer := nn.NewDense("fc", din, dout, rng)
	layer.CaptureKFAC = true
	x := tensor.RandN(rng, n, din, 1)
	y := layer.Forward(x)
	grad := tensor.RandN(rng, n, dout, 0.5)
	_ = y
	layer.Backward(grad)
	return layer
}

func TestNewPreconditionerEnablesCapture(t *testing.T) {
	rng := tensor.NewRNG(1)
	layer := nn.NewDense("fc", 3, 2, rng)
	if layer.CaptureKFAC {
		t.Fatal("capture should start disabled")
	}
	NewPreconditioner([]*nn.Dense{layer}, DefaultOptions())
	if !layer.CaptureKFAC {
		t.Fatal("NewPreconditioner must enable capture")
	}
}

func TestOptionsValidation(t *testing.T) {
	rng := tensor.NewRNG(2)
	layer := nn.NewDense("fc", 2, 2, rng)
	for _, opts := range []Options{{Damping: -1}, {StatDecay: 1}, {StatDecay: -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for options %+v", opts)
				}
			}()
			NewPreconditioner([]*nn.Dense{layer}, opts)
		}()
	}
}

func TestUpdateCurvatureWithoutStats(t *testing.T) {
	rng := tensor.NewRNG(3)
	layer := nn.NewDense("fc", 3, 2, rng)
	p := NewPreconditioner([]*nn.Dense{layer}, DefaultOptions())
	if err := p.UpdateCurvature(1); !errors.Is(err, ErrNoStats) {
		t.Fatalf("expected ErrNoStats, got %v", err)
	}
}

func TestCurvatureFactorShapesAndSymmetry(t *testing.T) {
	rng := tensor.NewRNG(4)
	layer := buildLayer(t, rng, 16, 5, 3)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: 1e-2})
	if err := p.UpdateCurvature(16); err != nil {
		t.Fatal(err)
	}
	s := p.States()[0]
	if s.A.Rows != 5 || s.A.Cols != 5 || s.B.Rows != 3 || s.B.Cols != 3 {
		t.Fatalf("factor shapes wrong: A %dx%d B %dx%d", s.A.Rows, s.A.Cols, s.B.Rows, s.B.Cols)
	}
	if !s.A.IsSymmetric(1e-12) || !s.B.IsSymmetric(1e-12) {
		t.Fatal("Kronecker factors must be symmetric")
	}
	if s.CurvatureUpdates != 1 {
		t.Fatalf("CurvatureUpdates = %d, want 1", s.CurvatureUpdates)
	}
}

// With a single example, the Kronecker approximation is exact:
// A ⊗ B == vec(G) vec(G)^T where G = e a^T is the per-example weight
// gradient (the identity underlying §2.3).
func TestKroneckerExactForSingleExample(t *testing.T) {
	rng := tensor.NewRNG(5)
	const din, dout = 4, 3
	layer := nn.NewDense("fc", din, dout, rng)
	layer.CaptureKFAC = true
	x := tensor.RandN(rng, 1, din, 1)
	layer.Forward(x)
	g := tensor.RandN(rng, 1, dout, 1)
	layer.Backward(g)

	p := NewPreconditioner([]*nn.Dense{layer}, Options{})
	if err := p.UpdateCurvature(1); err != nil {
		t.Fatal(err)
	}
	s := p.States()[0]
	// Per-example gradient G = e a^T (dout x din); vec is column-major.
	G := tensor.Outer(g.Row(0), x.Row(0))
	v := tensor.VecColMajor(G)
	outer := tensor.Outer(v, v)
	kron := tensor.Kron(s.A, s.B)
	if !kron.AllClose(outer, 1e-10) {
		t.Fatalf("A ⊗ B != vec(G) vec(G)^T for a single example (max diff %g)",
			kron.Sub(outer).MaxAbs())
	}
}

func TestLossScaleEntersQuadratically(t *testing.T) {
	rng := tensor.NewRNG(6)
	layer := buildLayer(t, rng, 8, 4, 3)
	p1 := NewPreconditioner([]*nn.Dense{layer}, Options{})
	if err := p1.UpdateCurvature(1); err != nil {
		t.Fatal(err)
	}
	b1 := p1.States()[0].B.Clone()
	p2 := NewPreconditioner([]*nn.Dense{layer}, Options{})
	if err := p2.UpdateCurvature(10); err != nil {
		t.Fatal(err)
	}
	b100 := p2.States()[0].B
	if !b100.AllClose(b1.Scale(100), 1e-9) {
		t.Fatal("B must scale with lossScale²")
	}
}

func TestEMADecay(t *testing.T) {
	rng := tensor.NewRNG(7)
	layer := buildLayer(t, rng, 8, 4, 3)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{StatDecay: 0.5})
	if err := p.UpdateCurvature(8); err != nil {
		t.Fatal(err)
	}
	first := p.States()[0].A.Clone()
	// Second update with identical stats: EMA of a constant is constant.
	if err := p.UpdateCurvature(8); err != nil {
		t.Fatal(err)
	}
	second := p.States()[0].A
	if !second.AllClose(first, 1e-10) {
		t.Fatal("EMA of constant statistics must not move")
	}
}

func TestInversionAndPrecondition(t *testing.T) {
	rng := tensor.NewRNG(8)
	layer := buildLayer(t, rng, 32, 6, 4)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: 1e-2, UsePiDamping: true})
	if err := p.UpdateCurvature(32); err != nil {
		t.Fatal(err)
	}
	if n := p.Precondition(); n != 0 {
		t.Fatalf("preconditioning before inversion must be a no-op, preconditioned %d", n)
	}
	if err := p.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	s := p.States()[0]
	if !s.HasInverses() || s.InverseUpdates != 1 {
		t.Fatal("inverses not installed")
	}
	gBefore := layer.GW.Clone()
	want := tensor.MatMul(tensor.MatMul(s.BInv, gBefore), s.AInv)
	if n := p.Precondition(); n != 1 {
		t.Fatalf("expected 1 layer preconditioned, got %d", n)
	}
	if !layer.GW.AllClose(want, 1e-10) {
		t.Fatal("Precondition must compute B⁻¹ G A⁻¹")
	}
	if s.InverseAge != 1 {
		t.Fatalf("InverseAge = %d, want 1", s.InverseAge)
	}
}

func TestPreconditionEqualsKroneckerInverseVec(t *testing.T) {
	// ĝ = (A ⊗ B)⁻¹ vec(G) must equal vec(B⁻¹ G A⁻¹): the identity that
	// makes K-FAC tractable (§2.3.1). Verified through the public API.
	rng := tensor.NewRNG(9)
	layer := buildLayer(t, rng, 64, 5, 4)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: 1e-1})
	if err := p.UpdateCurvature(64); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	s := p.States()[0]
	g := layer.GW.Clone()
	pre, err := p.PreconditionedGradient(0)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit Kronecker path using the same damped inverses.
	kronInv := tensor.Kron(s.AInv, s.BInv)
	explicit := tensor.MatVec(kronInv, tensor.VecColMajor(g))
	fast := tensor.VecColMajor(pre)
	for i := range explicit {
		if math.Abs(explicit[i]-fast[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %g vs %g", i, explicit[i], fast[i])
		}
	}
}

func TestInversionParallelSubsets(t *testing.T) {
	rng := tensor.NewRNG(10)
	l1 := buildLayer(t, rng, 16, 4, 4)
	l2 := buildLayer(t, rng, 16, 4, 4)
	p := NewPreconditioner([]*nn.Dense{l1, l2}, Options{Damping: 1e-2})
	if err := p.UpdateCurvature(16); err != nil {
		t.Fatal(err)
	}
	// Invert only layer 0's factors (as a device in inversion parallelism
	// would).
	for _, factorB := range []bool{false, true} {
		if err := p.InvertFactor(0, factorB); err != nil {
			t.Fatal(err)
		}
	}
	if !p.States()[0].HasInverses() || p.States()[1].HasInverses() {
		t.Fatal("only layer 0 should have inverses")
	}
	if n := p.Precondition(); n != 1 {
		t.Fatalf("expected exactly the inverted layer preconditioned, got %d", n)
	}
	if err := p.InvertFactor(5, false); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

func TestInvertBeforeCurvatureFails(t *testing.T) {
	rng := tensor.NewRNG(11)
	layer := nn.NewDense("fc", 3, 2, rng)
	p := NewPreconditioner([]*nn.Dense{layer}, DefaultOptions())
	if err := p.UpdateInverses(); err == nil {
		t.Fatal("expected error when inverting before any curvature update")
	}
}

func TestRankDeficientFactorsAreRescued(t *testing.T) {
	// Micro-batch (1 token) smaller than layer width: factors are rank-1
	// and need damping to invert — the failure-injection case.
	rng := tensor.NewRNG(12)
	layer := buildLayer(t, rng, 1, 8, 8)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: 1e-3})
	if err := p.UpdateCurvature(1); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateInverses(); err != nil {
		t.Fatalf("damped inversion must succeed on rank-deficient factors: %v", err)
	}
	if p.States()[0].AInv.HasNaN() || p.States()[0].BInv.HasNaN() {
		t.Fatal("NaN in damped inverses")
	}
}

func TestMaxInverseAge(t *testing.T) {
	rng := tensor.NewRNG(13)
	layer := buildLayer(t, rng, 16, 4, 4)
	p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: 1e-2})
	if p.MaxInverseAge() != 0 {
		t.Fatal("age must be 0 before any inverses exist")
	}
	if err := p.UpdateCurvature(16); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	p.Precondition()
	p.Precondition()
	if got := p.MaxInverseAge(); got != 2 {
		t.Fatalf("MaxInverseAge = %d, want 2", got)
	}
	if err := p.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	if got := p.MaxInverseAge(); got != 0 {
		t.Fatalf("refresh must reset age, got %d", got)
	}
}

// Property: preconditioning with identity-like curvature (huge damping)
// approaches a plain scaled gradient — K-FAC degrades gracefully to SGD.
func TestLargeDampingApproachesIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		din := 2 + rng.Intn(4)
		dout := 2 + rng.Intn(4)
		layer := nn.NewDense("fc", din, dout, rng)
		layer.CaptureKFAC = true
		x := tensor.RandN(rng, 8, din, 1)
		layer.Forward(x)
		layer.Backward(tensor.RandN(rng, 8, dout, 1))
		const lambda = 1e8
		p := NewPreconditioner([]*nn.Dense{layer}, Options{Damping: lambda})
		if err := p.UpdateCurvature(8); err != nil {
			return false
		}
		if err := p.UpdateInverses(); err != nil {
			return false
		}
		g := layer.GW.Clone()
		pre, err := p.PreconditionedGradient(0)
		if err != nil {
			return false
		}
		// With damping λ >> ||A||, B⁻¹GA⁻¹ ≈ G/λ (sqrt(λ) per factor).
		want := g.Scale(1 / lambda)
		return pre.AllClose(want, want.MaxAbs()*0.05+1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
