package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// withKernels runs f once under every available tensor kernel; exact says
// whether the variant's exp and erf are math.Exp and math.Erf themselves
// (scalar, tiled) or the AVX2 kernels within 2 ULP of them (fma).
func withKernels(t *testing.T, f func(t *testing.T, exact bool)) {
	t.Helper()
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	for _, k := range tensor.AvailableKernels() {
		if err := tensor.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		t.Run("kernel="+k.String(), func(t *testing.T) { f(t, k != tensor.KernelFMA) })
	}
}

// near reports whether got is want: bit for bit when exact, otherwise
// within rel of want's magnitude.
func near(got, want float64, exact bool, rel float64) bool {
	if exact {
		return got == want
	}
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// matches is near, entry by entry.
func matches(got, want *tensor.Matrix, exact bool, rel float64) bool {
	for i, w := range want.Data {
		if !near(got.Data[i], w, exact, rel) {
			return false
		}
	}
	return got.Rows == want.Rows && got.Cols == want.Cols
}

func TestDenseForwardKnown(t *testing.T) {
	d := &Dense{
		Name: "fc",
		W:    tensor.New(2, 3, []float64{1, 0, 0, 0, 1, 0}),
		B:    tensor.New(1, 2, []float64{10, 20}),
		GW:   tensor.Zeros(2, 3),
		GB:   tensor.Zeros(1, 2),
	}
	x := tensor.New(1, 3, []float64{1, 2, 3})
	y := d.Forward(x)
	if y.At(0, 0) != 11 || y.At(0, 1) != 22 {
		t.Fatalf("Dense forward wrong: %v", y)
	}
}

func TestDenseShapePanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 3, 2, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong input width")
			}
		}()
		d.Forward(tensor.Zeros(1, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for Backward before Forward")
			}
		}()
		NewDense("fc2", 3, 2, rng).Backward(tensor.Zeros(1, 2))
	}()
}

func TestDenseKFACCapture(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDense("fc", 4, 3, rng)
	d.CaptureKFAC = true
	x := tensor.RandN(rng, 5, 4, 1)
	y := d.Forward(x)
	if _, _, ok := d.KFACStats(); ok {
		t.Fatal("stats must not be available before backward")
	}
	_, g := func() (float64, *tensor.Matrix) {
		grad := tensor.Full(y.Rows, y.Cols, 0.5)
		return 0, grad
	}()
	d.Backward(g)
	acts, grads, ok := d.KFACStats()
	if !ok {
		t.Fatal("stats should be available after forward+backward")
	}
	if acts.Rows != 5 || acts.Cols != 4 || grads.Rows != 5 || grads.Cols != 3 {
		t.Fatalf("stat shapes wrong: acts %dx%d grads %dx%d", acts.Rows, acts.Cols, grads.Rows, grads.Cols)
	}
	d.ClearCapture()
	if _, _, ok := d.KFACStats(); ok {
		t.Fatal("ClearCapture must drop the stats")
	}
}

func TestDenseNoCaptureByDefault(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := NewDense("fc", 2, 2, rng)
	y := d.Forward(tensor.RandN(rng, 3, 2, 1))
	d.Backward(tensor.Full(y.Rows, y.Cols, 1))
	if _, _, ok := d.KFACStats(); ok {
		t.Fatal("stats must not be captured when CaptureKFAC is false")
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := NewDense("fc", 3, 2, rng)
	x := tensor.RandN(rng, 4, 3, 1)
	g := tensor.Full(4, 2, 1)
	d.Forward(x)
	d.Backward(g)
	once := d.GW.Clone()
	d.Forward(x)
	d.Backward(g)
	twice := d.GW
	if !twice.AllClose(once.Scale(2), 1e-12) {
		t.Fatal("gradients must accumulate across backward calls")
	}
	ZeroGrads(d.Params())
	if d.GW.Sum() != 0 || d.GB.Sum() != 0 {
		t.Fatal("ZeroGrads must clear gradients")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.RandN(rng, 6, 10, 3)
	p := SoftmaxRows(x)
	for i := 0; i < p.Rows; i++ {
		var s float64
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := tensor.New(1, 3, []float64{1000, 1001, 1002})
	p := SoftmaxRows(x)
	if p.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	logits := tensor.Zeros(3, 4)
	loss, grad, count := CrossEntropy(logits, []int{IgnoreIndex, IgnoreIndex, IgnoreIndex})
	if loss != 0 || count != 0 || grad.Sum() != 0 {
		t.Fatal("all-ignored loss must be zero with zero grad")
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	// Uniform logits: loss = log(C).
	logits := tensor.Zeros(2, 8)
	loss, _, _ := CrossEntropy(logits, []int{3, 5})
	if math.Abs(loss-math.Log(8)) > 1e-12 {
		t.Fatalf("uniform CE loss = %g, want log 8 = %g", loss, math.Log(8))
	}
}

func TestCrossEntropyTargetRangePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range target")
		}
	}()
	CrossEntropy(tensor.Zeros(1, 4), []int{7})
}

// The three cross-entropy entry points are one loop: under every kernel the
// loss-only and the into-buffer forms return CrossEntropy's bits, and the
// into form overwrites whatever the retained buffer held — ignored rows
// included. The loss and gradient are log-sum-exp and softmax written out
// with math.Exp: bit for bit under scalar and tiled, within a few ULP under
// fma. 300 columns take the loss's exps through more than one chunk.
func TestCrossEntropyFormsBitIdentical(t *testing.T) {
	withKernels(t, func(t *testing.T, exact bool) {
		rng := tensor.NewRNG(11)
		for _, cols := range []int{13, 300} {
			logits := tensor.RandN(rng, 9, cols, 3)
			targets := []int{4, IgnoreIndex, 0, 12, IgnoreIndex, IgnoreIndex, 7, 7, 1}
			for _, tg := range [][]int{targets, make([]int, 9), {-1, -1, -1, -1, -1, -1, -1, -1, -1}} {
				loss, grad, count := CrossEntropy(logits, tg)
				lossOnly, countOnly := CrossEntropyLoss(logits, tg)
				dirty := tensor.RandN(rng, 9, cols, 1)
				lossInto, countInto := CrossEntropyInto(dirty, logits, tg)
				if lossOnly != loss || lossInto != loss || countOnly != count || countInto != count {
					t.Fatalf("loss/count differ: %v/%d, loss-only %v/%d, into %v/%d",
						loss, count, lossOnly, countOnly, lossInto, countInto)
				}
				if !dirty.Equal(grad) {
					t.Fatal("into-buffer gradient differs from CrossEntropy's")
				}
				wantLoss, wantGrad := oracleCrossEntropy(logits, tg)
				if !matches(grad, wantGrad, exact, 1e-13) || !near(loss, wantLoss, exact, 1e-13) {
					t.Fatalf("loss %v and gradient differ from the math.Exp formulas (loss %v)", loss, wantLoss)
				}
			}
		}
	})
}

// oracleCrossEntropy is crossEntropy's arithmetic on math.Exp.
func oracleCrossEntropy(logits *tensor.Matrix, targets []int) (float64, *tensor.Matrix) {
	grad := tensor.Zeros(logits.Rows, logits.Cols)
	var count int
	for _, t := range targets {
		if t != IgnoreIndex {
			count++
		}
	}
	if count == 0 {
		return 0, grad
	}
	var loss float64
	invCount := 1 / float64(count)
	for i, t := range targets {
		if t == IgnoreIndex {
			continue
		}
		row := logits.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			mx = math.Max(mx, v)
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - mx)
		}
		logZ := mx + math.Log(sum)
		loss += logZ - row[t]
		for j, v := range row {
			grad.Set(i, j, math.Exp(v-logZ)*invCount)
		}
		grad.Set(i, t, grad.At(i, t)-invCount)
	}
	return loss * invCount, grad
}

func TestCrossEntropyIntoShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a mis-shaped gradient buffer")
		}
	}()
	CrossEntropyInto(tensor.Zeros(2, 4), tensor.Zeros(1, 4), []int{0})
}

func TestEmbeddingLookupAndBackward(t *testing.T) {
	rng := tensor.NewRNG(6)
	e := NewEmbedding("emb", 10, 4, rng)
	ids := []int{1, 3, 1}
	out := e.Lookup(ids)
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("Lookup shape wrong: %dx%d", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(2, j) {
			t.Fatal("same id must produce identical rows")
		}
	}
	grad := tensor.Full(3, 4, 1)
	e.BackwardIDs(grad)
	// Row 1 was used twice: gradient 2 per column; row 3 once.
	for j := 0; j < 4; j++ {
		if e.GTable.At(1, j) != 2 {
			t.Fatalf("GTable[1][%d] = %g, want 2", j, e.GTable.At(1, j))
		}
		if e.GTable.At(3, j) != 1 {
			t.Fatalf("GTable[3][%d] = %g, want 1", j, e.GTable.At(3, j))
		}
		if e.GTable.At(0, j) != 0 {
			t.Fatal("untouched rows must have zero grad")
		}
	}
}

func TestEmbeddingPanics(t *testing.T) {
	rng := tensor.NewRNG(7)
	e := NewEmbedding("emb", 4, 2, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range id")
			}
		}()
		e.Lookup([]int{5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for BackwardIDs before Lookup")
			}
		}()
		NewEmbedding("e2", 4, 2, rng).BackwardIDs(tensor.Zeros(1, 2))
	}()
}

func TestSequential(t *testing.T) {
	rng := tensor.NewRNG(8)
	seq := NewSequential(
		NewDense("a", 4, 8, rng),
		NewGELU(),
		NewDense("b", 8, 3, rng),
	)
	x := tensor.RandN(rng, 5, 4, 1)
	y := seq.Forward(x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("Sequential output shape wrong: %dx%d", y.Rows, y.Cols)
	}
	g := seq.Backward(tensor.Full(5, 3, 1))
	if g.Rows != 5 || g.Cols != 4 {
		t.Fatalf("Sequential input grad shape wrong: %dx%d", g.Rows, g.Cols)
	}
	if len(seq.Params()) != 4 {
		t.Fatalf("expected 4 params, got %d", len(seq.Params()))
	}
}

func TestNumParametersAndGradNorm(t *testing.T) {
	rng := tensor.NewRNG(9)
	d := NewDense("fc", 3, 2, rng)
	if got := NumParameters(d.Params()); got != 3*2+2 {
		t.Fatalf("NumParameters = %d, want 8", got)
	}
	d.GW.Set(0, 0, 3)
	d.GB.Set(0, 0, 4)
	if got := GradNorm(d.Params()); math.Abs(got-5) > 1e-12 {
		t.Fatalf("GradNorm = %g, want 5", got)
	}
}

func TestAttentionShapeValidation(t *testing.T) {
	rng := tensor.NewRNG(10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for indivisible heads")
			}
		}()
		NewMultiHeadAttention("a", 7, 2, rng)
	}()
	attn := NewMultiHeadAttention("a", 8, 2, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for Forward before SetShape")
			}
		}()
		attn.Forward(tensor.Zeros(4, 8))
	}()
	attn.SetShape(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong token count")
			}
		}()
		attn.Forward(tensor.Zeros(5, 8))
	}()
}

func TestAttentionSequenceIndependence(t *testing.T) {
	// Attention must not leak across sequence boundaries: changing tokens
	// of sequence 1 must not affect outputs for sequence 0.
	rng := tensor.NewRNG(11)
	const batch, seq, d, heads = 2, 4, 8, 2
	attn := NewMultiHeadAttention("attn", d, heads, rng)
	attn.SetShape(batch, seq)
	x := tensor.RandN(rng, batch*seq, d, 1)
	y1 := attn.Forward(x).Clone()
	x2 := x.Clone()
	for i := seq; i < 2*seq; i++ {
		for j := 0; j < d; j++ {
			x2.Set(i, j, rng.NormFloat64())
		}
	}
	y2 := attn.Forward(x2)
	for i := 0; i < seq; i++ {
		for j := 0; j < d; j++ {
			if math.Abs(y1.At(i, j)-y2.At(i, j)) > 1e-12 {
				t.Fatal("sequence 0 output changed when sequence 1 input changed")
			}
		}
	}
}

func TestTransformerBlockShapePreserved(t *testing.T) {
	rng := tensor.NewRNG(12)
	blk := NewTransformerBlock("b", 8, 16, 2, rng)
	blk.SetShape(2, 3)
	x := tensor.RandN(rng, 6, 8, 1)
	y := blk.Forward(x)
	if y.Rows != 6 || y.Cols != 8 {
		t.Fatalf("block output shape %dx%d, want 6x8", y.Rows, y.Cols)
	}
	if len(blk.DenseLayers()) != 6 {
		t.Fatalf("block must expose 6 K-FAC layers, got %d", len(blk.DenseLayers()))
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := tensor.NewRNG(13)
	ln := NewLayerNorm("ln", 16)
	x := tensor.RandN(rng, 4, 16, 5) // large scale input
	y := ln.Forward(x)
	for i := 0; i < y.Rows; i++ {
		var mean, variance float64
		for _, v := range y.Row(i) {
			mean += v
		}
		mean /= 16
		for _, v := range y.Row(i) {
			variance += (v - mean) * (v - mean)
		}
		variance /= 16
		if math.Abs(mean) > 1e-10 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d not normalized: mean %g var %g", i, mean, variance)
		}
	}
}
