package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// attnOracle is the scalar reference for MultiHeadAttention: the five
// dot-product loop nests the module ran before its core moved onto the
// packed GEMM driver, kept here verbatim. It shares nothing with the module
// but the Dense projections of a twin built from the same seed, so the two
// differ exactly by loops against tensor.MulViews.
type attnOracle struct {
	*MultiHeadAttention
	q, k, v *tensor.Matrix
	probs   []*tensor.Matrix
}

func (o *attnOracle) forward(x *tensor.Matrix) *tensor.Matrix {
	m := o.MultiHeadAttention
	q, k, v := m.Q.Forward(x), m.K.Forward(x), m.V.Forward(x)
	o.q, o.k, o.v = q, k, v
	d, s := m.DModel, m.seqLen
	dk := d / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	concat := tensor.Zeros(x.Rows, d)
	scores := tensor.Zeros(s, s)
	o.probs = o.probs[:0]
	for b := 0; b < m.batch; b++ {
		base := b * s
		for h := 0; h < m.Heads; h++ {
			off := h * dk
			for i := 0; i < s; i++ {
				qrow := q.Row(base + i)[off : off+dk]
				srow := scores.Row(i)
				for j := 0; j < s; j++ {
					if m.Causal && j > i {
						srow[j] = math.Inf(-1)
						continue
					}
					krow := k.Row(base + j)[off : off+dk]
					var dot float64
					for t := 0; t < dk; t++ {
						dot += qrow[t] * krow[t]
					}
					srow[j] = dot * scale
				}
			}
			probs := oracleSoftmaxRows(scores)
			o.probs = append(o.probs, probs)
			for i := 0; i < s; i++ {
				prow := probs.Row(i)
				orow := concat.Row(base + i)[off : off+dk]
				for j := 0; j < s; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vrow := v.Row(base + j)[off : off+dk]
					for t := 0; t < dk; t++ {
						orow[t] += p * vrow[t]
					}
				}
			}
		}
	}
	return m.Out.Forward(concat)
}

func (o *attnOracle) backward(grad *tensor.Matrix) *tensor.Matrix {
	m := o.MultiHeadAttention
	dConcat := m.Out.Backward(grad)
	d, s := m.DModel, m.seqLen
	dk := d / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	dQ, dK, dV := tensor.Zeros(dConcat.Rows, d), tensor.Zeros(dConcat.Rows, d), tensor.Zeros(dConcat.Rows, d)
	dP := tensor.Zeros(s, s)
	for b := 0; b < m.batch; b++ {
		base := b * s
		for h := 0; h < m.Heads; h++ {
			off := h * dk
			probs := o.probs[b*m.Heads+h]
			for i := 0; i < s; i++ {
				dorow := dConcat.Row(base + i)[off : off+dk]
				dprow := dP.Row(i)
				prow := probs.Row(i)
				for j := 0; j < s; j++ {
					vrow := o.v.Row(base + j)[off : off+dk]
					var dot float64
					for t := 0; t < dk; t++ {
						dot += dorow[t] * vrow[t]
					}
					dprow[j] = dot
					if p := prow[j]; p != 0 {
						dvrow := dV.Row(base + j)[off : off+dk]
						for t := 0; t < dk; t++ {
							dvrow[t] += p * dorow[t]
						}
					}
				}
			}
			dScores := oracleSoftmaxBackwardRows(probs, dP)
			for i := 0; i < s; i++ {
				dsrow := dScores.Row(i)
				dqrow := dQ.Row(base + i)[off : off+dk]
				qrow := o.q.Row(base + i)[off : off+dk]
				for j := 0; j < s; j++ {
					ds := dsrow[j] * scale
					if ds == 0 {
						continue
					}
					krow := o.k.Row(base + j)[off : off+dk]
					dkrow := dK.Row(base + j)[off : off+dk]
					for t := 0; t < dk; t++ {
						dqrow[t] += ds * krow[t]
						dkrow[t] += ds * qrow[t]
					}
				}
			}
		}
	}
	dx := m.Q.Backward(dQ).Clone()
	dx.AddInPlace(m.K.Backward(dK))
	dx.AddInPlace(m.V.Backward(dV))
	return dx
}

// oracleSoftmaxRows and oracleSoftmaxBackwardRows are the unfused row
// passes the module used with those loops: the formulas softmaxRows and
// softmaxBackwardRows must reproduce bit for bit at scale 1.
func oracleSoftmaxRows(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.Zeros(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row, orow := x.Row(i), out.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

func oracleSoftmaxBackwardRows(probs, grad *tensor.Matrix) *tensor.Matrix {
	out := tensor.Zeros(grad.Rows, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		prow, grow, orow := probs.Row(i), grad.Row(i), out.Row(i)
		var dot float64
		for j := range prow {
			dot += prow[j] * grow[j]
		}
		for j := range prow {
			orow[j] = prow[j] * (grow[j] - dot)
		}
	}
	return out
}

// attnCase is one generated shape of the suite.
type attnCase struct {
	b, s, heads, dk int
	causal          bool
}

func (c attnCase) String() string {
	return fmt.Sprintf("B%d_S%d_h%d_dk%d_causal=%v", c.b, c.s, c.heads, c.dk, c.causal)
}

func (c attnCase) seed() uint64 {
	return uint64(c.b*100003 + c.s*1009 + c.heads*101 + c.dk)
}

func attnCases(short bool) []attnCase {
	var cases []attnCase
	for _, b := range []int{1, 3} {
		for _, s := range []int{1, 7, 16, 33, 64} {
			for _, heads := range []int{1, 4} {
				for _, dk := range []int{1, 8, 16, 32} {
					for _, causal := range []bool{false, true} {
						if short && (s == 16 || dk == 8 || (b == 3 && heads == 1)) {
							continue
						}
						cases = append(cases, attnCase{b, s, heads, dk, causal})
					}
				}
			}
		}
	}
	return cases
}

// build returns a module for the case with its input and upstream
// gradient; two calls return bit-equal twins.
func (c attnCase) build() (m *MultiHeadAttention, x, grad *tensor.Matrix) {
	rng := tensor.NewRNG(c.seed())
	m = NewMultiHeadAttention("attn", c.heads*c.dk, c.heads, rng)
	m.Causal = c.causal
	m.SetShape(c.b, c.s)
	x = tensor.RandN(rng, c.b*c.s, m.DModel, 1)
	grad = tensor.RandN(rng, c.b*c.s, m.DModel, 1)
	return m, x, grad
}

// attnResult is everything one forward + backward produces: the output,
// the input gradient, every head's probabilities and the eight parameter
// gradients.
type attnResult struct {
	names []string
	mats  []*tensor.Matrix
}

func (r *attnResult) add(name string, m *tensor.Matrix) {
	r.names = append(r.names, name)
	r.mats = append(r.mats, m.Clone())
}

func (r *attnResult) addGrads(m *MultiHeadAttention) {
	for _, p := range m.Params() {
		r.add("grad "+p.Name, p.Grad)
	}
}

// worstRel returns the largest max-abs difference between matching
// matrices of r and want, relative to the larger of want's max-abs value
// and 1 (the key bias gradient is zero in exact arithmetic: all rounding
// noise), 0 when all are bit-equal, and the name of the matrix it occurred
// in.
func (r *attnResult) worstRel(t *testing.T, want *attnResult) (float64, string) {
	t.Helper()
	if len(r.mats) != len(want.mats) || len(r.mats) == 0 {
		t.Fatalf("results hold %d and %d matrices", len(r.mats), len(want.mats))
	}
	var worst float64
	var where string
	for i, m := range r.mats {
		if m.Equal(want.mats[i]) {
			continue
		}
		if m.HasNaN() {
			t.Fatalf("%s holds NaN", r.names[i])
		}
		if rel := m.Sub(want.mats[i]).MaxAbs() / math.Max(want.mats[i].MaxAbs(), 1); rel >= worst {
			worst, where = rel, r.names[i]
		}
	}
	return worst, where
}

func runAttention(c attnCase) *attnResult {
	m, x, grad := c.build()
	res := &attnResult{}
	res.add("output", m.Forward(x))
	res.add("input gradient", m.Backward(grad))
	for i, p := range m.lastProbs {
		res.add(fmt.Sprintf("probs[%d]", i), p)
	}
	res.addGrads(m)
	return res
}

func runAttentionOracle(c attnCase) *attnResult {
	m, x, grad := c.build()
	o := &attnOracle{MultiHeadAttention: m}
	res := &attnResult{}
	res.add("output", o.forward(x))
	res.add("input gradient", o.backward(grad))
	for i, p := range o.probs {
		res.add(fmt.Sprintf("probs[%d]", i), p)
	}
	res.addGrads(m)
	return res
}

var parallelismLevels = []int{1, 2, 4}

// f32AttentionBound is the stated bound of attention's float32 mode: the
// worst difference (as worstRel measures it) between
// the module with float32 product panels and the float64 loops (both over
// float32-mode Dense projections). The suite's six float32 products of depth
// <= 64 on unit-scale operands reach 2.5e-6.
const f32AttentionBound = 2e-5

// The generated suite: over every shape, the module must equal the scalar
// oracle bit for bit under KernelScalar and KernelTiled — output, probs,
// input gradient and all eight parameter gradients — stay within 1e-12
// under KernelFMA (fused rounding, and softmax exps within 2 ULP of the
// oracle's math.Exp) and within f32AttentionBound in
// float32 mode, and within each variant be bit-identical across
// SetParallelism x SetOpParallelism.
func TestAttentionMatchesScalarOracle(t *testing.T) {
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	defer tensor.SetParallelism(0)
	defer tensor.SetOpParallelism(0)
	defer tensor.SetF32(false)
	for _, c := range attnCases(testing.Short()) {
		for _, f32 := range []bool{false, true} {
			for _, kern := range tensor.AvailableKernels() {
				if f32 && kern == tensor.KernelScalar {
					continue // shares KernelTiled's float32 micro-kernel
				}
				if err := tensor.SetKernel(kern); err != nil {
					t.Fatal(err)
				}
				tensor.SetF32(f32)
				name := fmt.Sprintf("%v kernel=%s f32=%v", c, kern, f32)
				want := runAttentionOracle(c)
				var ref *attnResult
				for _, total := range parallelismLevels {
					for _, perOp := range parallelismLevels {
						tensor.SetParallelism(total)
						tensor.SetOpParallelism(perOp)
						got := runAttention(c)
						if ref == nil {
							ref = got
						} else if rel, where := got.worstRel(t, ref); rel != 0 {
							t.Fatalf("%s: %s depends on parallelism (%d workers, %d per op): rel %g", name, where, total, perOp, rel)
						}
					}
				}
				rel, where := ref.worstRel(t, want)
				bound := 0.0
				switch {
				case f32:
					bound = f32AttentionBound
				case kern == tensor.KernelFMA:
					bound = 1e-12
				}
				if rel > bound {
					t.Fatalf("%s: %s differs from the scalar oracle by rel %g, bound %g", name, where, rel, bound)
				}
			}
		}
	}
}

// A module must give the same answer whatever it computed before: a shape
// change between calls (B·S -> another B·S, both ways) and two Forwards
// before one Backward leave results bit-equal to a fresh module's, and
// every pooled buffer of the calls is back in the pool.
func TestAttentionShapeChangeAndRepeatedForward(t *testing.T) {
	tensor.SetPoolAudit(true)
	defer tensor.SetPoolAudit(false)
	a := attnCase{b: 3, s: 16, heads: 4, dk: 8}
	b := attnCase{b: 1, s: 33, heads: 4, dk: 8, causal: true}
	m, xa, ga := a.build()
	_, xb, gb := b.build()
	run := func(c attnCase, x, g *tensor.Matrix, forwards int) *attnResult {
		m.Causal = c.causal
		m.SetShape(c.b, c.s)
		ZeroGrads(m.Params())
		res := &attnResult{}
		var y *tensor.Matrix
		for i := 0; i < forwards; i++ {
			y = m.Forward(x)
		}
		res.add("output", y)
		res.add("input gradient", m.Backward(g))
		res.addGrads(m)
		return res
	}
	fresh := func(c attnCase, x, g *tensor.Matrix) *attnResult {
		f, _, _ := a.build() // a's weights: the module under test keeps them
		f.Causal = c.causal
		f.SetShape(c.b, c.s)
		res := &attnResult{}
		res.add("output", f.Forward(x))
		res.add("input gradient", f.Backward(g))
		res.addGrads(f)
		return res
	}
	for i, step := range []struct {
		c        attnCase
		x, g     *tensor.Matrix
		forwards int
	}{{a, xa, ga, 1}, {b, xb, gb, 1}, {a, xa, ga, 2}, {b, xb, gb, 2}} {
		got, want := run(step.c, step.x, step.g, step.forwards), fresh(step.c, step.x, step.g)
		if rel, where := got.worstRel(t, want); rel != 0 {
			t.Fatalf("step %d (%v, %d forwards): %s differs from a fresh module's by rel %g", i, step.c, step.forwards, where, rel)
		}
	}
	if live := tensor.PoolLive(); live != 0 {
		t.Fatalf("%d pooled matrices still checked out after attention calls", live)
	}
}

// The fused row passes at scale 1 are the plain softmax and its backward:
// equal to the unfused formulas, in place or not; a causal pass equals the
// plain one on -Inf-masked scores. Equal means bit for bit under the scalar
// and tiled kernels, whose exp is the oracle's math.Exp; under fma each exp
// is within 2 ULP of it, so a probability is within 1e-13 (relative) of the
// oracle's, masked ones exactly 0 — and in place is still bit-equal to not.
func TestSoftmaxRowPassesMatchUnfused(t *testing.T) {
	withKernels(t, testSoftmaxRowPasses)
}

func testSoftmaxRowPasses(t *testing.T, exact bool) {
	rng := tensor.NewRNG(11)
	for _, n := range []int{1, 2, 7, 64} {
		x := tensor.RandN(rng, n, n, 3)
		g := tensor.RandN(rng, n, n, 1)
		want := oracleSoftmaxRows(x)
		got := tensor.Zeros(n, n)
		SoftmaxRowsInto(got, x)
		inPlace := x.Clone()
		SoftmaxRowsInto(inPlace, inPlace)
		if !matches(got, want, exact, 1e-13) || !inPlace.Equal(got) {
			t.Fatalf("n=%d: SoftmaxRowsInto differs from the unfused softmax", n)
		}
		wantBack := oracleSoftmaxBackwardRows(want, g)
		gotBack := g.Clone()
		SoftmaxBackwardRowsInto(gotBack, want, gotBack)
		if !gotBack.Equal(wantBack) {
			t.Fatalf("n=%d: SoftmaxBackwardRowsInto differs from the unfused backward", n)
		}

		const scale = 0.25
		masked := tensor.Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				masked.Set(i, j, x.At(i, j)*scale)
				if j > i {
					masked.Set(i, j, math.Inf(-1))
				}
			}
		}
		causal := tensor.Full(n, n, math.NaN()) // stale contents must not survive
		softmaxRows(causal, x, scale, true)
		if !matches(causal, oracleSoftmaxRows(masked), exact, 1e-13) {
			t.Fatalf("n=%d: causal scaled pass differs from softmax of masked scores", n)
		}
		scaledBack := tensor.Zeros(n, n)
		softmaxBackwardRows(scaledBack, want, g, scale)
		for i, v := range wantBack.Data {
			if scaledBack.Data[i] != v*scale {
				t.Fatalf("n=%d: scaled backward[%d] = %g, want %g", n, i, scaledBack.Data[i], v*scale)
			}
		}
	}
}
