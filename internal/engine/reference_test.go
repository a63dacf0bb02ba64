package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// reference is what the engine declares it computes (doc.go, "Round
// contract" and "Staleness semantics"), as one loop on one goroutine over
// one model: no pipelines, pools, goroutines or module sets. Every global
// micro-batch of a step runs embed → blocks → head → backward in ascending
// order, and the gradient deltas and K-FAC partials fold through the
// transport's fold in that order. A refresh round's factors come from its
// first step's statistics, and each factor's new inverse first serves at the
// step its inversion op — or its chain's last op — sits in, read off the
// engine's own schedule: the one input the reference takes from it. Per
// layer, a carried generation folds and inverts before the window's own.
// Then every stage preconditions and the optimizer callback runs.
type reference struct {
	m       pipemodel.Model
	params  []*nn.Param
	blocks  []*nn.TransformerBlock
	layers  [][]*nn.Dense          // per stage, in factor order
	pre     []*kfac.Preconditioner // per stage
	micros  int                    // global micro-batches per step
	every   int                    // refresh interval, in rounds
	rounds  int
	carried *refGeneration // the last round's refresh, when its schedule carries work
	opt     func() error
}

// refGeneration is one refresh: the factors its window's first step yields,
// [stage][factor] with A at 2l and B at 2l+1, folded into a layer's EMA by
// the first of the layer's inversions that reaches them.
type refGeneration struct {
	factors [][]*tensor.Matrix
	folded  [][]bool
}

// refStats are one n x n factor's per-micro-batch partials: UᵀU and U's
// rows.
type refStats struct {
	n           int
	grams, rows [][]float64
}

func newReference(m pipemodel.Model, stages, micros, every int, opts kfac.Options, opt func() error) *reference {
	r := &reference{m: m, params: m.Params(), blocks: m.PipelineBlocks(), micros: micros, every: every, opt: opt}
	per := len(r.blocks) / stages
	for s := 0; s < stages; s++ {
		var layers []*nn.Dense
		for _, b := range r.blocks[s*per : (s+1)*per] {
			layers = append(layers, b.DenseLayers()...)
		}
		r.layers = append(r.layers, layers)
		r.pre = append(r.pre, kfac.NewPreconditioner(layers, opts))
	}
	return r
}

// serveSteps is the arrival map of an executable round: for every
// (generation, stage, factor), the first step whose precondition sees the
// factor's new inverse.
func serveSteps(s *pipeline.Schedule) map[[3]int]int {
	last := make(map[[4]int]int) // (generation, stage, factor, replica) -> its last chain step
	for _, op := range s.Ops {
		if k := [4]int{op.Generation, op.Stage, op.Factor, op.Replica}; op.Kind == pipeline.Inversion {
			last[k] = max(last[k], op.Chain)
		}
	}
	serve := make(map[[3]int]int)
	for _, op := range s.Ops {
		if op.Kind != pipeline.Inversion || op.Chain != last[[4]int{op.Generation, op.Stage, op.Factor, op.Replica}] {
			continue
		}
		k := [3]int{op.Generation, op.Stage, op.Factor}
		if at, ok := serve[k]; !ok || op.Step < at {
			serve[k] = op.Step
		}
	}
	return serve
}

// round trains one round, a step per batch, under the arrival map of sched
// and returns its losses.
func (r *reference) round(batches []*data.Batch, sched *pipeline.Schedule) ([]float64, error) {
	serve := serveSteps(sched)
	var own *refGeneration
	losses := make([]float64, len(batches))
	for j, batch := range batches {
		gen, loss, err := r.step(batch, j == 0 && r.rounds%r.every == 0)
		if err != nil {
			return nil, err
		}
		if gen != nil {
			own = gen
		}
		losses[j] = loss.Total
		for _, lag := range []int{1, 0} {
			g := own
			if lag == 1 {
				g = r.carried
			}
			for s := range r.layers {
				for f := 0; g != nil && f < 2*len(r.layers[s]); f++ {
					if at, ok := serve[[3]int{lag, s, f}]; ok && at == j {
						if err := r.invert(g, s, f); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		for _, p := range r.pre {
			p.Precondition()
		}
		if err := r.opt(); err != nil {
			return nil, err
		}
		nn.ZeroGrads(r.params)
	}
	r.carried = nil
	if slices.ContainsFunc(sched.Ops, func(op *pipeline.Op) bool { return op.Generation > 0 }) {
		r.carried = own
	}
	r.rounds++
	return losses, nil
}

// step runs one batch forward and backward, micro-batch by micro-batch, and
// folds its gradients; with collect it also returns the refresh the batch's
// statistics make.
func (r *reference) step(batch *data.Batch, collect bool) (*refGeneration, pipemodel.Loss, error) {
	var loss pipemodel.Loss
	all := splitBatch(batch, r.micros)
	totals := pipemodel.Totals{Seqs: batch.BatchSize}
	for _, mb := range all {
		totals.Tokens += r.m.BatchTokenCount(mb)
	}
	deltas := make([][][]float64, len(r.params)) // [param][micro]
	stats := make([][]refStats, len(r.layers))   // [stage][factor]
	for s, layers := range r.layers {
		stats[s] = make([]refStats, 2*len(layers))
	}
	for _, mb := range all {
		x := r.m.EmbedForward(mb)
		for _, b := range r.blocks {
			b.SetShape(mb.BatchSize, mb.SeqLen)
			x = b.Forward(x)
		}
		for s, layers := range r.layers {
			for li, l := range layers {
				if collect { // the A statistics, snapshotted as the engine does
					snap := tensor.SnapClone(l.CapturedInput())
					stats[s][2*li].add(snap)
					snap.Release()
				}
			}
		}
		l, err := r.m.HeadLoss(mb, x, totals)
		if err != nil {
			return nil, loss, err
		}
		loss.Add(l)
		g, err := r.m.HeadGradient(mb, x, totals)
		if err != nil {
			return nil, loss, err
		}
		for i := len(r.blocks) - 1; i >= 0; i-- {
			g = r.blocks[i].Backward(g)
		}
		for s, layers := range r.layers {
			for li, l := range layers {
				if collect { // the B statistics
					stats[s][2*li+1].add(l.CapturedOutputGradSnap())
				}
			}
		}
		r.m.EmbedBackward(g)
		for k, p := range r.params {
			deltas[k] = append(deltas[k], p.Grad.Clone().Data)
			p.Grad.Zero()
		}
	}
	for k, p := range r.params {
		fold(p.Grad.Data, deltas[k])
	}
	if !collect {
		return nil, loss, nil
	}
	scale := r.m.KFACLossScale(totals)
	gen := &refGeneration{factors: make([][]*tensor.Matrix, len(r.layers)), folded: make([][]bool, len(r.layers))}
	for s := range stats {
		gen.folded[s] = make([]bool, len(r.layers[s]))
		for f := range stats[s] {
			sc := 1.0 // A
			if f%2 == 1 {
				sc = scale * scale
			}
			gen.factors[s] = append(gen.factors[s], stats[s][f].factor(sc))
		}
	}
	return gen, loss, nil
}

func (p *refStats) add(stat tensor.Snap) {
	p.n = stat.Cols()
	g := tensor.Zeros(p.n, p.n)
	stat.GramInto(g)
	p.grams = append(p.grams, g.Data)
	p.rows = append(p.rows, []float64{float64(stat.Rows())})
}

// factor folds the partials into scale/N · Σ UᵀU, N the summed rows. The
// partials are lower triangles (GramInto); the sum is mirrored once.
func (p *refStats) factor(scale float64) *tensor.Matrix {
	f, rows := tensor.Zeros(p.n, p.n), []float64{0}
	fold(f.Data, p.grams)
	fold(rows, p.rows)
	f.ScaleInPlace(scale / rows[0])
	f.MirrorLower()
	return f
}

// fold is the transport's fixed-order sum, dst = +0 + parts[0] + parts[1] + ….
func fold(dst []float64, parts [][]float64) {
	if _, err := (transport.Loopback{}).AllReduce("", dst, nil, parts); err != nil {
		panic(err)
	}
}

// invert serves factor f of stage s from generation g, folding the layer's
// factors into its EMA first if no inversion of g has yet.
func (r *reference) invert(g *refGeneration, s, f int) error {
	li := f / 2
	if !g.folded[s][li] {
		if err := r.pre[s].SetFactors(li, g.factors[s][2*li], g.factors[s][2*li+1]); err != nil {
			return err
		}
		g.folded[s][li] = true
	}
	return r.pre[s].InvertFactor(li, f%2 == 1)
}

// refCase is one configuration the engine is held to the reference on.
type refCase struct {
	model  string // a refModels key, built with one block per stage
	cfg    Config
	every  int // refresh interval, in steps
	batch  int // sequences per step
	kernel tensor.Kernel
	serial bool // on a one-goroutine tensor pool: the "scalar" kernel case
}

func (c refCase) String() string {
	return fmt.Sprintf("%s/%s/W%d/K%d/overlap=%v/invpar=%v/every%d/%s", c.model, c.cfg.Method,
		max(c.cfg.Replicas, 1), c.cfg.RefreshSteps, c.cfg.OverlapRounds, c.cfg.InversionParallel, c.every, c.kernelCase().name)
}

// kernelCase is a tensor configuration the kernel-variant tests run under:
// an available kernel variant at the current pool size, or "scalar" — the
// tiled variant on a one-goroutine tensor pool, so the Go loops run with
// neither vector instructions nor fan-out.
type kernelCase struct {
	name   string
	kernel tensor.Kernel
	serial bool
}

var scalarCase = kernelCase{"scalar", tensor.KernelTiled, true}

// kernelCases lists the scalar case first, then every available variant.
func kernelCases() []kernelCase {
	cs := []kernelCase{scalarCase}
	for _, k := range tensor.AvailableKernels() {
		cs = append(cs, kernelCase{k.String(), k, false})
	}
	return cs
}

func (c refCase) kernelCase() kernelCase {
	if c.serial {
		return scalarCase
	}
	return kernelCase{c.kernel.String(), c.kernel, false}
}

// use selects c's kernel, and a one-goroutine pool for a serial case; the
// returned func puts both back.
func (c kernelCase) use(t *testing.T) (restore func()) {
	t.Helper()
	def, workers := tensor.ActiveKernel(), tensor.Parallelism()
	restore = func() {
		tensor.SetParallelism(workers)
		tensor.SetKernel(def)
	}
	if c.serial {
		tensor.SetParallelism(1)
	}
	if err := tensor.SetKernel(c.kernel); err != nil {
		restore()
		t.Fatal(err)
	}
	return restore
}

// refModels are the models a refCase names, built with the given number of
// transformer blocks.
var refModels = map[string]struct {
	make    func(blocks int) (pipemodel.Model, error)
	batches func(t *testing.T, n, size int) []*data.Batch
}{
	"bert": {func(blocks int) (pipemodel.Model, error) {
		cfg := bert.TinyConfig()
		cfg.Blocks = blocks
		return bert.New(cfg, 123)
	}, bertBatches},
	"gpt": {func(blocks int) (pipemodel.Model, error) {
		cfg := gpt.TinyConfig()
		cfg.Blocks = blocks
		return gpt.New(cfg, 99)
	}, gptBatches},
	// Its 128-wide factors invert as chains at two sequences per micro-batch.
	"bert-ffn128": {func(blocks int) (pipemodel.Model, error) {
		cfg := bert.TinyConfig()
		cfg.Blocks, cfg.DFF = blocks, 128
		return bert.New(cfg, 123)
	}, bertBatches},
}

// requireMatchesReference trains rounds of c on the engine and on the
// reference from the same weights and batches, and fails at the first bit
// that differs: a loss, a gradient the optimizer sees, or — after every
// round — a K-FAC factor or inverse; after every round it also holds the
// engine to one parameter copy per process (aliasError). prep adjusts the
// engine once K-FAC is on, onRound sees it after every round; either may be
// nil. It returns the engine and its losses.
func requireMatchesReference(t *testing.T, c refCase, rounds int, prep, onRound func(*Engine)) (*Engine, []float64) {
	t.Helper()
	defer c.kernelCase().use(t)()
	mc := refModels[c.model]
	m, err := mc.make(c.cfg.Stages)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mc.make(c.cfg.Stages)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithConfig(m, c.cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	opts := kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}
	if err := e.EnableKFAC(opts, c.every); err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if prep != nil {
		prep(e)
	}
	// got and want are the gradients each optimizer saw, per step of a round.
	var got, want [][]*tensor.Matrix
	seen := func(ps []*nn.Param, opt *optim.LAMB, into *[][]*tensor.Matrix) func() error {
		return func() error {
			g := make([]*tensor.Matrix, len(ps))
			for i, p := range ps {
				g[i] = p.Grad.Clone()
			}
			*into = append(*into, g)
			opt.Step(5e-3)
			return nil
		}
	}
	commit := seen(m.Params(), optim.NewLAMB(m.Params(), 0.01), &got)
	e.SetOptimizer(func(int) error { return commit() })
	k := e.RoundSteps()
	ref := newReference(rm, c.cfg.Stages, c.cfg.MicroBatches*e.Replicas(), c.every/k, opts,
		seen(rm.Params(), optim.NewLAMB(rm.Params(), 0.01), &want))
	batches := mc.batches(t, rounds*k, c.batch)
	var losses []float64
	for i := 0; i < rounds; i++ {
		got, want = got[:0], want[:0]
		res, err := e.TrainRound(batches[i*k : (i+1)*k])
		if err != nil {
			t.Fatalf("%v round %d: %v", c, i, err)
		}
		refLosses, err := ref.round(batches[i*k:(i+1)*k], e.Schedule())
		if err != nil {
			t.Fatalf("%v round %d: reference: %v", c, i, err)
		}
		for j, sr := range res {
			if math.Float64bits(sr.Loss.Total) != math.Float64bits(refLosses[j]) {
				t.Fatalf("%v round %d step %d: loss %.17g, reference %.17g", c, i, j, sr.Loss.Total, refLosses[j])
			}
			losses = append(losses, sr.Loss.Total)
			for p, g := range got[j] {
				if !bitsEqual(g, want[j][p]) {
					t.Fatalf("%v round %d step %d: the optimizer saw a gradient of %s the reference did not (max diff %g)",
						c, i, j, m.Params()[p].Name, g.Sub(want[j][p]).MaxAbs())
				}
			}
		}
		for s := 0; s < e.Stages(); s++ {
			for li, ls := range e.KFACStates(s).States() {
				rs := ref.pre[s].States()[li]
				for name, pair := range map[string][2]*tensor.Matrix{"A": {ls.A, rs.A}, "B": {ls.B, rs.B}, "A⁻¹": {ls.Inverse(false, nil), rs.Inverse(false, nil)}, "B⁻¹": {ls.Inverse(true, nil), rs.Inverse(true, nil)}} {
					if (pair[0] == nil) != (pair[1] == nil) || pair[0] != nil && !bitsEqual(pair[0], pair[1]) {
						t.Fatalf("%v after round %d: stage %d layer %s: %s differs from the reference's", c, i, s, ls.Layer.Name, name)
					}
				}
			}
		}
		if err := aliasError(e); err != nil {
			t.Fatalf("%v after round %d: %v", c, i, err)
		}
		if onRound != nil {
			onRound(e)
		}
	}
	return e, losses
}

// bitsEqual reports whether two matrices hold the same float64 bits.
func bitsEqual(a, b *tensor.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.EqualFunc(a.Data, b.Data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// referenceMatrix is every configuration TestEngineMatchesReference covers
// under kernel: {bert, gpt} x the schedule families x W {1, 2, 4} x
// K {1, 2, 4} x overlap x InversionParallel x a refresh every round or every
// other round. Every micro-batch holds one sequence of the batch of 8, so
// W = 4 runs 2 micro-batches per replica, with three module sets aliasing
// the primary's weights.
func referenceMatrix(kernel tensor.Kernel) []refCase {
	var out []refCase
	for _, model := range []string{"bert", "gpt"} {
		for _, method := range pipeline.Methods() {
			for _, w := range []int{1, 2, 4} {
				for _, k := range []int{1, 2, 4} {
					for _, overlap := range []bool{false, true} {
						for _, invPar := range []bool{false, true} {
							for _, every := range []int{k, 2 * k} {
								out = append(out, refCase{model: model, every: every, batch: 8, kernel: kernel, cfg: Config{
									Method: method, Stages: 2, MicroBatches: min(4, 8/w), Replicas: w,
									RefreshSteps: k, OverlapRounds: overlap, InversionParallel: invPar,
								}})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestEngineMatchesReference holds the engine to the reference bit for bit —
// every loss, every gradient the optimizer sees, every factor and inverse
// after every round, over three rounds — on the whole matrix under the tiled
// kernel and on seeded draws from it under every other case kernelCases
// lists: their results are a function of shapes, and all run the same
// shapes. Each case's draws are seeded from its name, so adding or removing
// a case moves no other case's draws. With -short (and under the race
// detector) a seeded sample of the tiled matrix runs instead, and one draw
// per other case.
func TestEngineMatchesReference(t *testing.T) {
	cases := referenceMatrix(tensor.KernelTiled)
	draws := 4
	if testing.Short() || raceEnabled {
		rng := rand.New(rand.NewSource(33))
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		cases, draws = cases[:24], 1
	}
	for _, kc := range kernelCases() {
		if kc.name == "tiled" {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(kc.name))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		other := referenceMatrix(kc.kernel)
		for i := 0; i < draws; i++ {
			c := other[rng.Intn(len(other))]
			c.serial = kc.serial
			cases = append(cases, c)
		}
	}
	var carried, late bool
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			requireMatchesReference(t, c, 3, nil, func(e *Engine) {
				for k, step := range serveSteps(e.Schedule()) {
					carried = carried || k[0] > 0
					late = late || step > 0
				}
			})
		})
	}
	if !t.Failed() && (!carried || !late) {
		t.Fatalf("the matrix carried refresh work: %v; served an inverse after its window's first step: %v — it must do both", carried, late)
	}
}
