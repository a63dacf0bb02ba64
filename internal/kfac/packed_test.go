package kfac

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/nn"
	"repro/internal/tensor"
)

// tensorFMAWide is tensor's resolved fma tile width (true = 512-bit tiles),
// unexported there because no API names a width; this test flips it by
// linkname, like engine's width-identity test.
//
//go:linkname tensorFMAWide repro/internal/tensor.fmaWide
var tensorFMAWide atomic.Bool

// preconditionOracle is Precondition's product as two MatMulInto calls on
// the cached inverses: B⁻¹ G A⁻¹, with no packed panels.
func preconditionOracle(s *LayerState, g *tensor.Matrix) *tensor.Matrix {
	tmp := tensor.Zeros(g.Rows, g.Cols)
	out := tensor.Zeros(g.Rows, g.Cols)
	tensor.MatMulInto(tmp, s.Inverse(true, nil), g)
	tensor.MatMulInto(out, tmp, s.Inverse(false, nil))
	return out
}

func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestPreconditionPackedInverses: Precondition multiplies with the
// inverses' panels packed at their swap, and must equal the MatMulInto path
// bit for bit after every event that changes what those panels should
// hold — a refresh's swap, a kernel change, a float32-mode flip, a tile-width
// flip and a snapshot restore into the inverses' own storage. Stale panels
// read anywhere would show as a difference.
func TestPreconditionPackedInverses(t *testing.T) {
	def, wide := tensor.ActiveKernel(), tensorFMAWide.Load()
	defer func() {
		tensor.SetKernel(def)
		tensorFMAWide.Store(wide)
		tensor.SetF32(false)
	}()
	rng := tensor.NewRNG(41)
	layers := []*nn.Dense{
		buildLayer(t, rng, 48, 64, 64),
		buildLayer(t, rng, 24, 40, 33),
		buildLayer(t, rng, 96, 130, 17),
	}
	p := NewPreconditioner(layers, DefaultOptions())
	grads := make([]*tensor.Matrix, len(layers))
	for i, l := range layers {
		grads[i] = tensor.RandN(rng, l.GW.Rows, l.GW.Cols, 1)
	}
	check := func(event string) {
		t.Helper()
		for i, s := range p.States() {
			s.Layer.GW.CopyFrom(grads[i])
		}
		want := make([]*tensor.Matrix, len(layers))
		for i, s := range p.States() {
			want[i] = preconditionOracle(s, grads[i])
		}
		if n := p.Precondition(); n != len(layers) {
			t.Fatalf("%s: preconditioned %d layers, want %d", event, n, len(layers))
		}
		for i, s := range p.States() {
			if !sameBits(s.Layer.GW, want[i]) {
				t.Fatalf("%s: layer %d differs from B⁻¹ G A⁻¹ by MatMulInto (max %g)",
					event, i, s.Layer.GW.Sub(want[i]).MaxAbs())
			}
		}
	}
	refresh := func() {
		t.Helper()
		// Fresh statistics every time, so every refresh swaps in an
		// inverse that differs from the one before.
		for _, l := range layers {
			l.Forward(tensor.RandN(rng, 24, l.DIn(), 1))
			l.Backward(tensor.RandN(rng, 24, l.DOut(), 0.5))
		}
		if err := p.UpdateCurvature(16); err != nil {
			t.Fatal(err)
		}
		if err := p.UpdateInverses(); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	check("first inverses")
	refresh()
	check("after a swap")
	var snap Snapshot
	snap.Save(p)
	refresh()
	check("after a second swap")
	if err := snap.Restore(p); err != nil {
		t.Fatal(err)
	}
	check("after a snapshot restore")
	for _, k := range tensor.AvailableKernels() {
		if err := tensor.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after SetKernel(%v)", k))
		tensor.SetF32(true)
		check(fmt.Sprintf("after SetF32(true) under %v", k))
		tensor.SetF32(false)
		check(fmt.Sprintf("after SetF32(false) under %v", k))
	}
	if err := tensor.SetKernel(tensor.KernelFMA); err != nil || !wide {
		t.Log("fma width: avx512 absent, width flip untested")
		return
	}
	for _, w := range []bool{false, true, false} {
		tensorFMAWide.Store(w)
		check(fmt.Sprintf("after a width flip to wide=%v", w))
		refresh()
		check(fmt.Sprintf("after a swap at wide=%v", w))
	}
}
