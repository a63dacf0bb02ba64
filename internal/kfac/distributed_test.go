package kfac

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// These tests verify the distributed K-FAC semantics of Figure 2: data
// parallelism with synchronized (averaged) gradients and Kronecker factors
// must produce exactly the same preconditioned update as a single device
// processing the full mini-batch, and inversion parallelism (different
// devices inverting different layers) must change nothing numerically.

// cloneDense deep-copies a layer's parameters into a fresh layer.
func cloneDense(src *nn.Dense) *nn.Dense {
	return &nn.Dense{
		Name: src.Name,
		W:    src.W.Clone(),
		B:    src.B.Clone(),
		GW:   tensor.Zeros(src.GW.Rows, src.GW.Cols),
		GB:   tensor.Zeros(src.GB.Rows, src.GB.Cols),
	}
}

func TestDataParallelKFACMatchesSingleDevice(t *testing.T) {
	rng := tensor.NewRNG(42)
	const n, din, dout = 16, 5, 4
	x := tensor.RandN(rng, n, din, 1)
	upstream := tensor.RandN(rng, n, dout, 0.25)

	// Reference: one device sees the full batch.
	ref := nn.NewDense("fc", din, dout, rng)
	refP := NewPreconditioner([]*nn.Dense{ref}, Options{Damping: 1e-2, UsePiDamping: false})
	ref.Forward(x)
	ref.GW.Zero()
	ref.Backward(upstream.Scale(1.0 / n)) // mean-reduced loss gradient
	if err := refP.UpdateCurvature(n); err != nil {
		t.Fatal(err)
	}
	if err := refP.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	refGrad := ref.GW.Clone()
	refPre, err := refP.PreconditionedGradient(0)
	if err != nil {
		t.Fatal(err)
	}

	// Two data-parallel replicas, each with half the batch. Per-replica
	// losses are means over their own halves; all-reduce averages both
	// the gradients (sync-grad) and the Kronecker factors
	// (sync-curvature), as in Figure 2(ii,b).
	half := n / 2
	rep := make([]*nn.Dense, 2)
	pres := make([]*Preconditioner, 2)
	for i := range rep {
		rep[i] = cloneDense(ref)
		pres[i] = NewPreconditioner([]*nn.Dense{rep[i]}, Options{Damping: 1e-2, UsePiDamping: false})
		lo, hi := i*half, (i+1)*half
		xi := tensor.New(half, din, append([]float64(nil), x.Data[lo*din:hi*din]...))
		gi := tensor.New(half, dout, append([]float64(nil), upstream.Data[lo*dout:hi*dout]...))
		rep[i].Forward(xi)
		rep[i].GW.Zero()
		rep[i].Backward(gi.Scale(1.0 / float64(half)))
		if err := pres[i].UpdateCurvature(float64(half)); err != nil {
			t.Fatal(err)
		}
	}
	// sync-grad: average the replicas' gradients.
	avgGrad := rep[0].GW.Add(rep[1].GW).Scale(0.5)
	if !avgGrad.AllClose(refGrad, 1e-10) {
		t.Fatalf("averaged DP gradient differs from full-batch gradient (max %g)",
			avgGrad.Sub(refGrad).MaxAbs())
	}
	// sync-curvature: average the factors, install on replica 0, invert.
	s0, s1 := pres[0].States()[0], pres[1].States()[0]
	s0.A = s0.A.Add(s1.A).Scale(0.5)
	s0.B = s0.B.Add(s1.B).Scale(0.5)
	refState := refP.States()[0]
	if !s0.A.AllClose(refState.A, 1e-10) || !s0.B.AllClose(refState.B, 1e-10) {
		t.Fatal("averaged DP Kronecker factors differ from full-batch factors")
	}
	if err := pres[0].UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	rep[0].GW.CopyFrom(avgGrad)
	dpPre, err := pres[0].PreconditionedGradient(0)
	if err != nil {
		t.Fatal(err)
	}
	if !dpPre.AllClose(refPre, 1e-8) {
		t.Fatalf("DP preconditioned update differs from single device (max %g)",
			dpPre.Sub(refPre).MaxAbs())
	}
}

func TestInversionParallelismIsExact(t *testing.T) {
	// Splitting inversion work across devices (§2.3.2) is a pure
	// parallelization: every layer's inverse is computed somewhere, then
	// broadcast, so preconditioning all layers after per-layer InvertFactor
	// calls on complementary devices equals UpdateInverses on everything.
	rng := tensor.NewRNG(7)
	mk := func() (*Preconditioner, []*nn.Dense) {
		r := tensor.NewRNG(7) // identical init
		l1 := nn.NewDense("a", 4, 4, r)
		l2 := nn.NewDense("b", 4, 4, r)
		p := NewPreconditioner([]*nn.Dense{l1, l2}, Options{Damping: 1e-2})
		x := tensor.RandN(tensor.NewRNG(9), 8, 4, 1)
		g := tensor.RandN(tensor.NewRNG(11), 8, 4, 1)
		for _, l := range []*nn.Dense{l1, l2} {
			l.Forward(x)
			l.Backward(g)
		}
		if err := p.UpdateCurvature(8); err != nil {
			t.Fatal(err)
		}
		return p, []*nn.Dense{l1, l2}
	}
	_ = rng

	pAll, layersAll := mk()
	if err := pAll.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	pAll.Precondition()

	pSplit, layersSplit := mk()
	for i := range layersSplit { // device i+1 inverts layer i
		for _, factorB := range []bool{false, true} {
			if err := pSplit.InvertFactor(i, factorB); err != nil {
				t.Fatal(err)
			}
		}
	}
	pSplit.Precondition()

	for i := range layersAll {
		if !layersAll[i].GW.AllClose(layersSplit[i].GW, 1e-12) {
			t.Fatalf("layer %d: inversion parallelism changed the update", i)
		}
	}
}
