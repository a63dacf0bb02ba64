package bert

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// The full-row head is the reference the masked head is held to: the MLM
// head scores all B·S positions and cross-entropy skips the unmasked ones
// (their gradient rows are zero). Test-only, and freshly allocating.

func fullNSPTargets(mb *data.Batch) []int {
	out := make([]int, mb.BatchSize)
	for i, isNext := range mb.IsNext {
		if isNext {
			out[i] = 1
		}
	}
	return out
}

func fullCls(y *tensor.Matrix, mb *data.Batch) *tensor.Matrix {
	cls := tensor.Zeros(mb.BatchSize, y.Cols)
	for i := 0; i < mb.BatchSize; i++ {
		copy(cls.Row(i), y.Row(i*mb.SeqLen))
	}
	return cls
}

func fullHeadLoss(m *Model, mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) pipemodel.Loss {
	mlmLoss, masked := nn.CrossEntropyLoss(m.MLMHead.Forward(y), mb.Targets)
	nspLoss, _ := nn.CrossEntropyLoss(m.NSPHead.Forward(fullCls(y, mb)), fullNSPTargets(mb))
	var mlm float64
	if t.Tokens > 0 {
		mlm = mlmLoss * float64(masked) / float64(t.Tokens)
	}
	nsp := nspLoss * float64(mb.BatchSize) / float64(t.Seqs)
	return pipemodel.Loss{Total: mlm + nsp, Components: map[string]float64{"mlm": mlm, "nsp": nsp}, Tokens: masked}
}

func fullHeadGradient(m *Model, mb *data.Batch, y *tensor.Matrix, t pipemodel.Totals) *tensor.Matrix {
	mlmLogits := m.MLMHead.Forward(y)
	mlmGrad := tensor.Zeros(mlmLogits.Rows, mlmLogits.Cols)
	_, masked := nn.CrossEntropyInto(mlmGrad, mlmLogits, mb.Targets)
	if t.Tokens > 0 && masked > 0 {
		mlmGrad.ScaleInPlace(float64(masked) / float64(t.Tokens))
	}
	dx := m.MLMHead.Backward(mlmGrad).Clone()
	nspLogits := m.NSPHead.Forward(fullCls(y, mb))
	nspGrad := tensor.Zeros(nspLogits.Rows, nspLogits.Cols)
	nn.CrossEntropyInto(nspGrad, nspLogits, fullNSPTargets(mb))
	nspGrad.ScaleInPlace(float64(mb.BatchSize) / float64(t.Seqs))
	dCls := m.NSPHead.Backward(nspGrad)
	for i := 0; i < mb.BatchSize; i++ {
		row, add := dx.Row(i*mb.SeqLen), dCls.Row(i)
		for j := range row {
			row[j] += add[j]
		}
	}
	return dx
}

// fullEvalMLM is Evaluate's MLM loss and accuracy over all B·S rows.
func fullEvalMLM(m *Model, x *tensor.Matrix, targets []int) (loss, acc float64) {
	logits := m.MLMHead.Forward(x)
	loss, masked := nn.CrossEntropyLoss(logits, targets)
	var correct int
	for i, tgt := range targets {
		if tgt >= 0 && argmaxRow(logits, i) == tgt {
			correct++
		}
	}
	if masked > 0 {
		acc = float64(correct) / float64(masked)
	}
	return loss, acc
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestMaskedHeadMatchesFullHead: scoring only the masked rows gives the
// full-row head's loss, input gradient and MLM / NSP weight and bias
// gradients bit for bit, and Evaluate its held-out MLM loss and accuracy —
// at masked counts 0, 1 and all and on a corpus batch, under every kernel
// variant in float64 and float32 mode. The cases run back to back on one
// model pair, so the head's retained buffers shrink and regrow between
// them.
func TestMaskedHeadMatchesFullHead(t *testing.T) {
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	defer tensor.SetF32(false)
	cfg := TinyConfig()
	corpus := tinyCorpus(t, 11)
	base := corpus.MakeBatch(4, data.DefaultBatchConfig(cfg.SeqLen))
	withTargets := func(set func(i int) int) *data.Batch {
		b := *base
		b.Targets = make([]int, len(base.Targets))
		for i := range b.Targets {
			b.Targets[i] = set(i)
		}
		return &b
	}
	none := func(int) int { return nn.IgnoreIndex }
	cases := []struct {
		name  string
		batch *data.Batch
	}{
		{"all", withTargets(func(i int) int { return (7*i + 3) % cfg.VocabSize })},
		{"one", withTargets(func(i int) int {
			if i == 21 {
				return 5
			}
			return nn.IgnoreIndex
		})},
		{"none", withTargets(none)},
		{"corpus", base},
		{"all again", withTargets(func(i int) int { return (5*i + 1) % cfg.VocabSize })},
	}
	for _, k := range tensor.AvailableKernels() {
		for _, f32 := range []bool{false, true} {
			if err := tensor.SetKernel(k); err != nil {
				t.Fatal(err)
			}
			tensor.SetF32(f32)
			masked, full := tinyModel(t, 12), tinyModel(t, 12)
			rng := tensor.NewRNG(13)
			for _, c := range cases {
				name := fmt.Sprintf("%v f32=%v %s", k, f32, c.name)
				mb := c.batch
				y := tensor.RandN(rng, mb.BatchSize*mb.SeqLen, cfg.DModel, 1)
				totals := pipemodel.Totals{Tokens: mb.MaskedCount() + 3, Seqs: mb.BatchSize + 1}

				got, err := masked.HeadLoss(mb, y, totals)
				if err != nil {
					t.Fatal(err)
				}
				want := fullHeadLoss(full, mb, y, totals)
				if got.Tokens != want.Tokens || math.Float64bits(got.Total) != math.Float64bits(want.Total) ||
					math.Float64bits(got.Components["mlm"]) != math.Float64bits(want.Components["mlm"]) ||
					math.Float64bits(got.Components["nsp"]) != math.Float64bits(want.Components["nsp"]) {
					t.Fatalf("%s: HeadLoss %+v, full head %+v", name, got, want)
				}

				for _, p := range append(masked.HeadParams(), full.HeadParams()...) {
					p.Grad.Zero()
				}
				dx, err := masked.HeadGradient(mb, y, totals)
				if err != nil {
					t.Fatal(err)
				}
				wantDX := fullHeadGradient(full, mb, y, totals)
				if i, ok := sameBits(dx.Data, wantDX.Data); !ok {
					t.Fatalf("%s: dX differs at %d", name, i)
				}
				for i, p := range masked.HeadParams() {
					if j, ok := sameBits(p.Grad.Data, full.HeadParams()[i].Grad.Data); !ok {
						t.Fatalf("%s: %s gradient differs at %d", name, p.Name, j)
					}
				}

				res, err := masked.Evaluate(mb)
				if err != nil {
					t.Fatal(err)
				}
				x := full.EmbedForward(mb)
				for _, b := range full.PipelineBlocks() {
					b.SetShape(mb.BatchSize, mb.SeqLen)
					x = b.Forward(x)
				}
				loss, acc := fullEvalMLM(full, x, mb.Targets)
				if math.Float64bits(res.Loss.MLM) != math.Float64bits(loss) ||
					math.Float64bits(res.MLMAccuracy) != math.Float64bits(acc) {
					t.Fatalf("%s: Evaluate MLM %v accuracy %v, full head %v %v", name, res.Loss.MLM, res.MLMAccuracy, loss, acc)
				}
			}
		}
	}
}

// The head's steady state allocates nothing as the masked count changes
// from micro-batch to micro-batch: every buffer keeps its storage when a
// call needs fewer rows than it once held. HeadLoss's one allocation is the
// Components map of the pipemodel.Loss it returns.
func TestHeadZeroAllocAcrossMaskedCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := tinyModel(t, 14)
	corpus := tinyCorpus(t, 15)
	batches := make([]*data.Batch, 6)
	for i := range batches {
		batches[i] = corpus.MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))
	}
	y := tensor.RandN(tensor.NewRNG(16), 4*m.Config.SeqLen, m.Config.DModel, 1)
	run := func(head func(*data.Batch, pipemodel.Totals) error) func() {
		return func() {
			for _, mb := range batches {
				if err := head(mb, pipemodel.Totals{Tokens: mb.MaskedCount(), Seqs: mb.BatchSize}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	grad := run(func(mb *data.Batch, tot pipemodel.Totals) error {
		_, err := m.HeadGradient(mb, y, tot)
		return err
	})
	loss := run(func(mb *data.Batch, tot pipemodel.Totals) error {
		_, err := m.HeadLoss(mb, y, tot)
		return err
	})
	grad()
	loss()
	if avg := testing.AllocsPerRun(20, grad); avg > 0 {
		t.Fatalf("HeadGradient allocates %.1f times per %d micro-batches", avg, len(batches))
	}
	perMap := testing.AllocsPerRun(20, func() {
		sink = pipemodel.Loss{Components: map[string]float64{"mlm": float64(len(batches)), "nsp": 1}}
	})
	if avg := testing.AllocsPerRun(20, loss); avg > perMap*float64(len(batches)) {
		t.Fatalf("HeadLoss allocates %.1f times per %d micro-batches, its maps %.0f", avg, len(batches), perMap*float64(len(batches)))
	}
}

var sink pipemodel.Loss
