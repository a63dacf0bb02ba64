package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bert"
	"repro/internal/kfac"
	"repro/internal/pipeline"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// foldStat is global micro-batch m's statistics for one factor: rows x n,
// the same on every rank that holds m.
func foldStat(m, rows, n int, factorB bool) *tensor.Matrix {
	seed := uint64(2*m + 1)
	if factorB {
		seed++
	}
	return tensor.RandN(tensor.NewRNG(seed), rows, n, 1)
}

// TestFoldMirrorsLowerGramsOnce: the factor fold sums Snap.GramInto
// partials — lower triangles over an upper one the test fills with NaN —
// and mirrors each sum once. That must equal the fold of whole, mirrored
// partials (TMatMulInto(u, u)) summed in ascending global micro-batch order
// and scaled, bit for bit: on loopback at W = 1 and 2, and on a two-rank
// ring with one and two local replicas.
func TestFoldMirrorsLowerGramsOnce(t *testing.T) {
	const (
		micro      = 2
		nA, nB     = 40, 33
		rows       = 16 // one sequence of bert.TinyConfig's SeqLen per micro-batch
		scaleB     = 3.5
		stage, lay = 0, 0
	)
	// want is the fold of mirrored partials over global micro-batches
	// [0, total).
	want := func(total int) (a, b *tensor.Matrix) {
		fold := func(n int, factorB bool, scale float64) *tensor.Matrix {
			parts := make([][]float64, total)
			for m := range parts {
				u := foldStat(m, rows, n, factorB)
				p := tensor.Zeros(n, n)
				tensor.TMatMulInto(p, u, u)
				parts[m] = p.Data
			}
			sum := tensor.Zeros(n, n)
			fold(sum.Data, parts)
			sum.ScaleInPlace(scale / float64(rows*total))
			return sum
		}
		return fold(nA, false, 1), fold(nB, true, scaleB)
	}
	// got runs the engine's fold on one rank holding global micro-batches
	// [first, first+local) of total.
	got := func(g transport.Group, replicas, first, total int) (a, b *tensor.Matrix, err error) {
		m, err := bert.New(bert.TinyConfig(), 123)
		if err != nil {
			return nil, nil, err
		}
		e, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: micro, Replicas: replicas, Transport: g})
		if err != nil {
			return nil, nil, err
		}
		if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
			return nil, nil, err
		}
		local := micro * replicas
		pool := newKFACGenPool(2, local, len(e.sets[0].stages[stage].layers), replicas)
		defer pool.reset()
		pool.totals = pipemodel.Totals{Seqs: total}
		for i := 0; i < local; i++ {
			for _, f := range []struct {
				n       int
				factorB bool
			}{{nA, false}, {nB, true}} {
				p := tensor.Get(f.n, f.n)
				for j := range p.Data {
					p.Data[j] = math.NaN()
				}
				tensor.SnapClone(foldStat(first+i, rows, f.n, f.factorB)).GramInto(p)
				pool.putPartial(stage, lay, f.factorB, i, p, e.foldsEarly())
			}
		}
		a, b, _, err = e.foldFactors(e.kfacFold[stage][lay], pool, stage, lay, scaleB)
		return a, b, err
	}
	check := func(t *testing.T, where string, a, b, wa, wb *tensor.Matrix) {
		t.Helper()
		if !a.Equal(wa) || !b.Equal(wb) {
			t.Fatalf("%s: the folded lower Grams, mirrored once, differ from the fold of mirrored partials", where)
		}
		if !a.IsSymmetric(0) || !b.IsSymmetric(0) {
			t.Fatalf("%s: a folded factor is not exactly symmetric", where)
		}
	}
	def := tensor.ActiveKernel()
	defer tensor.SetKernel(def)
	for _, kern := range tensor.AvailableKernels() {
		if err := tensor.SetKernel(kern); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			wa, wb := want(micro * w)
			a, b, err := got(nil, w, 0, micro*w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("%v loopback W=%d", kern, w), a, b, wa, wb)
		}
		for _, replicas := range []int{1, 2} {
			wa, wb := want(2 * micro * replicas)
			out := runRingRanks(t, 64, func(rank int, g transport.Group) rankResult {
				a, b, err := got(g, replicas, rank*micro*replicas, 2*micro*replicas)
				return rankResult{grads: []*tensor.Matrix{a, b}, err: err}
			})
			for rank, r := range out {
				if r.err != nil {
					t.Fatalf("ring rank %d: %v", rank, r.err)
				}
				check(t, fmt.Sprintf("%v ring rank %d, W=%d", kern, rank, 2*replicas), r.grads[0], r.grads[1], wa, wb)
			}
		}
	}
}

// TestPrefixFoldMatchesChainFold: contributions that arrive in any order —
// on one device, or split between two devices the way Chimera's two
// pipelines split a stage's micro-batches — fold into running sums bit for
// bit as the transport's chain folds them: +0, then each contribution in
// ascending order. It runs both running sums, a gradient's (foldGrads) and a
// factor's (putPartial), over all 24 arrival orders of 4 contributions
// whose values mix −0, subnormals and magnitudes far enough apart that
// every addition rounds, so folding in arrival order differs.
func TestPrefixFoldMatchesChainFold(t *testing.T) {
	const n, rows, cols = 4, 8, 8
	rng := tensor.NewRNG(52)
	contrib := make([]*tensor.Matrix, n)
	for m := range contrib {
		c := tensor.Zeros(rows, cols)
		for i := range c.Data {
			switch u := rng.Float64(); {
			case i%8 == 0:
				c.Data[i] = math.Copysign(0, -1)
			case i%8 == 1:
				c.Data[i] = math.Float64frombits(rng.Uint64() % (1 << 52)) // subnormal
			case u < 0.5:
				c.Data[i] = (rng.Float64() - 0.5) * math.Pow(2, float64(int(rng.Float64()*120)-60))
			default:
				c.Data[i] = float64(1+int(rng.Float64()*3)) * math.Pow(2, 53) * math.Copysign(1, u-0.75)
			}
		}
		contrib[m] = c
	}
	chain := func(order []int) *tensor.Matrix {
		parts := make([][]float64, len(order))
		for i, m := range order {
			parts[i] = contrib[m].Data
		}
		dst := tensor.Zeros(rows, cols)
		if _, err := (transport.Loopback{}).AllReduce("fold", dst.Data, nil, parts); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := chain([]int{0, 1, 2, 3})
	var orders [][]int
	var permute func(prefix, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, slices.Clone(prefix))
		}
		for i := range rest {
			next := append(slices.Clone(rest[:i]), rest[i+1:]...)
			permute(append(prefix, rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})
	distinct := 0
	for _, order := range orders {
		if !bitsEqual(chain(order), want) {
			distinct++
		}
	}
	if distinct < len(orders)/2 {
		t.Fatalf("only %d of %d arrival orders fold to other bits: the values cannot tell a prefix fold from an arrival-order one", distinct, len(orders))
	}

	// The gradient's running sum: one step, one stage, one parameter.
	st := &runState{
		e:        &Engine{group: transport.Loopback{}},
		deltas:   [][][][]*tensor.Matrix{{mat2(n, 1)}},
		gradFold: [][]prefixFold{{newPrefixFold(n)}},
		gradSum:  [][]*tensor.Matrix{{tensor.Zeros(rows, cols)}},
	}
	// A run folds the contributions as drive makes them arrive.
	type drive func(arrive func(m int))
	grads := func(d drive) *tensor.Matrix {
		st.round++
		for i := range st.gradSum[0][0].Data {
			st.gradSum[0][0].Data[i] = math.NaN() // the fold overwrites whatever the accumulator held
		}
		d(func(m int) {
			st.deltas[0][0][m][0] = tensor.GetClone(contrib[m])
			st.foldGrads(0, 0, m)
		})
		return st.gradSum[0][0]
	}
	// The factor's running sum: one stage, one layer, factor A.
	pool := newKFACGenPool(1, n, 1, 1)
	factor := func(d drive) *tensor.Matrix {
		pool.reset()
		d(func(m int) { pool.putPartial(0, 0, false, m, tensor.GetClone(contrib[m]), true) })
		return pool.sumA[0][0].acc
	}
	for _, sum := range []struct {
		name string
		run  func(drive) *tensor.Matrix
	}{{"gradient", grads}, {"factor", factor}} {
		for _, order := range orders {
			got := sum.run(func(arrive func(m int)) {
				for _, m := range order {
					arrive(m)
				}
			})
			if got == nil || !bitsEqual(got, want) {
				t.Fatalf("%s, one device, arrivals %v: the running sum differs from the chain fold", sum.name, order)
			}
			// Two devices: micro-batches 0, 1 on one and 2, 3 on the other,
			// each arriving in the order's relative order, concurrently.
			for rep := 0; rep < 8; rep++ {
				got = sum.run(func(arrive func(m int)) {
					var wg sync.WaitGroup
					for _, own := range [][]int{{0, 1}, {2, 3}} {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, m := range order {
								if slices.Contains(own, m) {
									arrive(m)
								}
							}
						}()
					}
					wg.Wait()
				})
				if got == nil || !bitsEqual(got, want) {
					t.Fatalf("%s, two devices, arrivals %v: the running sum differs from the chain fold", sum.name, order)
				}
			}
		}
	}
	for m, set := range st.deltas[0][0] {
		if set[0] != nil {
			t.Fatalf("delta of micro-batch %d still held after its fold", m)
		}
	}
	for m, p := range pool.curvA[0][0] {
		if p != nil {
			t.Fatalf("partial of micro-batch %d still held after its fold", m)
		}
	}
}

// TestFoldBytesBalance: the folds' byte ledger (Engine.FoldBytes) counts
// every pooled buffer a fold takes and gives back, so between serialized
// rounds — clean ones and aborted ones alike — it reads zero held bytes,
// and each round's high-water mark is positive.
func TestFoldBytesBalance(t *testing.T) {
	for _, cfg := range []Config{
		{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2, RefreshSteps: 2, InversionParallel: true},
		{Method: "chimera", Stages: 2, MicroBatches: 4, RefreshSteps: 2},
	} {
		t.Run(cfg.Method, func(t *testing.T) {
			m, c := newModelAndCorpus(t)
			e, err := NewWithConfig(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
				t.Fatal(err)
			}
			e.SetOptimizer(func(int) error { return nil })
			for round := 0; round < 4; round++ {
				if round == 2 {
					e.failOp = func(op *pipeline.Op) error {
						if op.Kind == pipeline.Inversion && op.Step == 1 {
							return fmt.Errorf("injected abort")
						}
						return nil
					}
				} else {
					e.failOp = nil
				}
				_, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen))
				if (err != nil) != (round == 2) {
					t.Fatalf("round %d: %v", round, err)
				}
				if d, p := e.held.deltas.cur.Load(), e.held.partials.cur.Load(); d != 0 || p != 0 {
					t.Fatalf("round %d: the ledger holds %d delta and %d partial bytes between rounds, want 0", round, d, p)
				}
				if p, d := e.FoldBytes(); p <= 0 || d <= 0 {
					t.Fatalf("round %d: high-water marks %d partial and %d delta bytes, want both positive", round, p, d)
				}
			}
		})
	}
}
