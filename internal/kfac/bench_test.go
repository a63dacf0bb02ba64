package kfac

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchPreconditioner builds a 64->64 layer with captured stats — the
// per-layer shape of the tiny-BERT experiments.
func benchPreconditioner(b *testing.B) *Preconditioner {
	b.Helper()
	rng := tensor.NewRNG(1)
	layer := nn.NewDense("fc", 64, 64, rng)
	layer.CaptureKFAC = true
	x := tensor.RandN(rng, 512, 64, 1)
	layer.Forward(x)
	layer.Backward(tensor.RandN(rng, 512, 64, 0.5))
	return NewPreconditioner([]*nn.Dense{layer}, DefaultOptions())
}

func BenchmarkUpdateCurvature(b *testing.B) {
	p := benchPreconditioner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.UpdateCurvature(512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateInverses refreshes every cached inverse of a
// preconditioner: the 64->64 layer (both factors in the scalar base case of
// tensor.SPDInverseInto) and a d = 128 / dff = 512 feed-forward pair, the
// benchmark's wide_1f1b_k8 shape (factors 128 and 512, the blocked path).
// Steady state allocates nothing: inverses ping-pong two retained buffers.
func BenchmarkUpdateInverses(b *testing.B) {
	run := func(b *testing.B, p *Preconditioner) {
		for i := 0; i < 2; i++ { // both ping-pong buffers exist before timing
			if err := p.UpdateCurvature(512); err != nil {
				b.Fatal(err)
			}
			if err := p.UpdateInverses(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.UpdateInverses(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("d=64", func(b *testing.B) { run(b, benchPreconditioner(b)) })
	b.Run("d=128_dff=512", func(b *testing.B) {
		rng := tensor.NewRNG(1)
		ff1 := nn.NewDense("ff1", 128, 512, rng)
		ff2 := nn.NewDense("ff2", 512, 128, rng)
		ff1.CaptureKFAC, ff2.CaptureKFAC = true, true
		h := ff1.Forward(tensor.RandN(rng, 64, 128, 1)) // tokens < dff: rank-deficient factors
		ff2.Forward(h)
		ff1.Backward(ff2.Backward(tensor.RandN(rng, 64, 128, 0.5)))
		run(b, NewPreconditioner([]*nn.Dense{ff1, ff2}, DefaultOptions()))
	})
}

func BenchmarkUpdateInversesBlockDiagonal(b *testing.B) {
	p := benchPreconditioner(b)
	if err := p.UpdateCurvature(512); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.UpdateInversesBlockDiagonal(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrecondition(b *testing.B) {
	p := benchPreconditioner(b)
	if err := p.UpdateCurvature(512); err != nil {
		b.Fatal(err)
	}
	if err := p.UpdateInverses(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Precondition()
	}
}

// BenchmarkKFACRefreshAndPrecondition covers one full K-FAC cycle —
// curvature refresh, factor inversion, gradient preconditioning — the
// per-refresh cost the PipeFisher packer hides in pipeline bubbles. The
// KFAC-named benchmark also anchors the CI bench job's
// 'MatMul|Dense|KFAC' pattern in this package.
func BenchmarkKFACRefreshAndPrecondition(b *testing.B) {
	p := benchPreconditioner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.UpdateCurvature(512); err != nil {
			b.Fatal(err)
		}
		if err := p.UpdateInverses(); err != nil {
			b.Fatal(err)
		}
		p.Precondition()
	}
}
