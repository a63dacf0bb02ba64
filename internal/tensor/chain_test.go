package tensor

import (
	"fmt"
	"math"
	"testing"
)

// spdInverseOneShot is SPDInverseInto's body before the chain — the scalar
// pipeline up to the variant's base block, the blocked form in one call
// above it — returning the damping its result was computed with.
func spdInverseOneShot(dst, m *Matrix, damping float64) (float64, error) {
	kern := ActiveKernel()
	work := Get(m.Rows, m.Rows)
	defer Put(work)
	d := damping
	for try := 0; try < spdAttempts; try++ {
		work.CopyFrom(m)
		if d > 0 {
			work.AddDiagonalInPlace(d)
		}
		var err error
		if m.Rows <= baseBlock(kern) {
			err = invertScalar(dst, work)
		} else {
			err = invertBlocked(dst, work, kern)
		}
		if err == nil {
			return d, nil
		}
		if d == 0 {
			d = 1e-8 * math.Max(1, m.MaxAbs())
		} else {
			d *= 10
		}
	}
	return d, ErrNotSPD
}

// schurSingular builds the n x n Gram matrix of [I | B] (B an n1 x (n-n1)
// integer matrix): its leading n1 block is I, so the chain's first step
// factors it at damping 0, and its Schur complement B^T B - B^T B is exactly
// zero, so M22 — the chain's fourth step — is the first to find a
// non-positive pivot and escalate.
func schurSingular(n int) *Matrix {
	n1 := blockedSplit(n, invNB)
	x := Zeros(n1, n)
	r := NewRNG(uint64(n))
	for i := 0; i < n1; i++ {
		x.Set(i, i, 1)
		for j := n1; j < n; j++ {
			x.Set(i, j, float64(int(r.Float64()*5)-2))
		}
	}
	return TMatMul(x, x)
}

// TestInversionChainBitIdentical: an InverseChain run step by step — with
// unrelated pooled GEMM work between the steps, as an engine's device does
// between two bubbles — returns exactly SPDInverseInto's bits and the one-shot
// reference's, at every size that takes the scalar, the one-step blocked or
// the chained path, under every kernel variant, with SetF32 on and off
// (inverses stay float64) and at parallelism 1 and 2. A rank-deficient
// input at damping 0 escalates from inside the chain's M22 step and still
// lands on the reference's result and final damping.
func TestInversionChainBitIdentical(t *testing.T) {
	defer SetParallelism(0)
	noise := RandN(NewRNG(11), 96, 80, 1)
	interleave := func() {
		p := MatMul(noise, TMatMul(noise, noise))
		Put(p)
	}
	check := func(t *testing.T, m *Matrix, damping float64, escalate bool) {
		want := Zeros(m.Rows, m.Rows)
		wantDamping, err := spdInverseOneShot(want, m, damping)
		if err != nil {
			t.Fatal(err)
		}
		oneCall := Zeros(m.Rows, m.Rows)
		if err := SPDInverseInto(oneCall, m, damping); err != nil {
			t.Fatal(err)
		}
		if !oneCall.Equal(want) {
			t.Fatalf("SPDInverseInto differs from the one-shot reference (max %g)", oneCall.Sub(want).MaxAbs())
		}
		got := Zeros(m.Rows, m.Rows)
		var c InverseChain
		if err := c.Start(m, damping); err != nil {
			t.Fatal(err)
		}
		steps := c.Steps()
		if want := len(InverseChainFLOPs(m.Rows)); max(want, 1) != steps {
			t.Fatalf("chain has %d steps, InverseChainFLOPs prices %d", steps, want)
		}
		for k := 0; k < steps; k++ {
			if c.Last() != (k == steps-1) {
				t.Fatalf("step %d: Last() = %v", k, c.Last())
			}
			if escalate && k == 3 && c.damping != damping {
				t.Fatalf("damping escalated to %g before the M22 step", c.damping)
			}
			if err := c.Step(got); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			if escalate && k == 3 && c.damping == damping {
				t.Fatal("the M22 step did not escalate the damping")
			}
			interleave()
		}
		if c.Active() {
			t.Fatal("chain still active after its last step")
		}
		if !got.Equal(want) {
			t.Fatalf("stepped chain differs from the one-shot reference (max %g)", got.Sub(want).MaxAbs())
		}
		if c.damping != wantDamping {
			t.Fatalf("chain finished at damping %g, reference at %g", c.damping, wantDamping)
		}
	}
	sizes := func(ns ...int) {
		for _, n := range ns {
			m := spdCase(uint64(n), n, n/4+1, 1e-2)
			withKernels(t, func(t *testing.T, _ bool) {
				for _, f32 := range []bool{false, true} {
					for _, par := range []int{1, 2} {
						t.Run(fmt.Sprintf("n=%d/f32=%v/par=%d", n, f32, par), func(t *testing.T) {
							SetF32(f32)
							defer SetF32(false)
							SetParallelism(par)
							check(t, m, 0, false)
							check(t, m, 1e-3, false)
						})
					}
				}
			})
		}
	}
	sizes(65, 100, 128, 200, 256, 300, 512)
	withKernels(t, func(t *testing.T, _ bool) {
		for _, n := range []int{128, 200} {
			t.Run(fmt.Sprintf("escalation/n=%d", n), func(t *testing.T) {
				check(t, schurSingular(n), 0, true)
			})
		}
	})
	// One-step chains: the scalar pipeline under every variant at 16, the
	// blocked form in one call under fma above it.
	sizes(16, 17, 48, 64)
}

// A chain abandoned part way (the engine's abort or degrade) returns every
// pooled buffer on Release, and a chain whose attempts run out releases them
// itself.
func TestInversionChainReleases(t *testing.T) {
	m := spdCase(3, 200, 51, 1e-2)
	SetPoolAudit(true)
	defer SetPoolAudit(false)
	var c InverseChain
	if err := c.Start(m, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := c.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Release()
	if c.Active() || PoolLive() != 0 {
		t.Fatalf("released chain: active %v, PoolLive %d", c.Active(), PoolLive())
	}
	bad := Eye(200)
	bad.Set(199, 3, math.NaN())
	if err := c.Start(bad, 0); err != nil {
		t.Fatal(err)
	}
	var err error
	for err == nil && c.Active() {
		err = c.Step(Zeros(200, 200))
	}
	if err == nil || c.Active() || PoolLive() != 0 {
		t.Fatalf("exhausted chain: err %v, active %v, PoolLive %d", err, c.Active(), PoolLive())
	}
	if err := c.Step(nil); err == nil {
		t.Fatal("Step on an idle chain succeeded")
	}
}
