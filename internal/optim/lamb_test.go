package optim_test

import (
	"math"
	"testing"

	"repro/internal/bert"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// wideParams returns the parameters of the repository benchmark's widest
// model (wide_1f1b_k8: 532 738 values over embeddings, two blocks and the
// head) with random gradients.
func wideParams(tb testing.TB) []*nn.Param {
	tb.Helper()
	m, err := bert.New(bert.Config{VocabSize: 512, DModel: 128, DFF: 512, Heads: 4, Blocks: 2, SeqLen: 32}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	params := m.Params()
	if n := nn.NumParameters(params); n != 532738 {
		tb.Fatalf("wide model has %d parameters, want 532738", n)
	}
	rng := tensor.NewRNG(2)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	return params
}

// referenceLAMBStep is the NVLAMB update written out with a fresh update
// slice per parameter — LAMB.Step before its scratch was retained. State
// (m, v, step) lives in the caller; the hyperparameters are variables, as
// Step's are (1-beta1 must round at run time).
func referenceLAMBStep(params []*nn.Param, m, v [][]float64, step int, lr, wd float64) {
	beta1, beta2, eps, maxTrust := 0.9, 0.999, 1e-6, 10.0
	preScale := 1.0
	if gn := nn.GradNorm(params); gn > 1 {
		preScale = 1 / gn
	}
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i, p := range params {
		var wNorm, uNorm float64
		update := make([]float64, len(p.Value.Data))
		for j := range p.Value.Data {
			g := p.Grad.Data[j] * preScale
			m[i][j] = beta1*m[i][j] + (1-beta1)*g
			v[i][j] = beta2*v[i][j] + (1-beta2)*g*g
			u := (m[i][j]/bc1)/(math.Sqrt(v[i][j]/bc2)+eps) + wd*p.Value.Data[j]
			update[j] = u
			wNorm += p.Value.Data[j] * p.Value.Data[j]
			uNorm += u * u
		}
		trust := 1.0
		if wNorm, uNorm = math.Sqrt(wNorm), math.Sqrt(uNorm); wNorm > 0 && uNorm > 0 {
			trust = math.Min(wNorm/uNorm, maxTrust)
		}
		for j := range p.Value.Data {
			p.Value.Data[j] -= lr * trust * update[j]
		}
	}
}

// Retaining the update scratch must not change a bit: three steps over
// parameters of very different sizes (so the scratch is resliced both ways)
// equal the allocating formula exactly.
func TestLAMBStepMatchesAllocatingReference(t *testing.T) {
	got, want := wideParams(t), wideParams(t)
	opt := optim.NewLAMB(got, 0.01)
	m, v := make([][]float64, len(want)), make([][]float64, len(want))
	for i, p := range want {
		m[i], v[i] = make([]float64, len(p.Value.Data)), make([]float64, len(p.Value.Data))
	}
	for step := 1; step <= 3; step++ {
		opt.Step(1e-3)
		referenceLAMBStep(want, m, v, step, 1e-3, 0.01)
		for i, p := range got {
			if !p.Value.Equal(want[i].Value) {
				t.Fatalf("step %d: %s differs from the allocating reference (max %g)",
					step, p.Name, p.Value.Sub(want[i].Value).MaxAbs())
			}
		}
	}
}

func TestLAMBStepZeroAlloc(t *testing.T) {
	opt := optim.NewLAMB(wideParams(t), 0.01)
	if avg := testing.AllocsPerRun(5, func() { opt.Step(1e-3) }); avg != 0 {
		t.Fatalf("LAMB.Step allocates %.1f times per step, want 0", avg)
	}
}

// BenchmarkLAMBStep is one optimizer step at the wide benchmark model's
// 532 738 parameters.
func BenchmarkLAMBStep(b *testing.B) {
	opt := optim.NewLAMB(wideParams(b), 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(1e-3)
	}
}
