package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bert"
	"repro/internal/kfac"
	"repro/internal/optim"
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
		// One layer per stage: the stage's exchange reduces all of its sums.
		pool := newKFACGenPool(2, local, 1, replicas, nil)
		defer pool.reset()
		pool.totals = pipemodel.Totals{Seqs: total}
		for i := 0; i < local; i++ {
			for _, f := range []struct {
				n       int
				factorB bool
			}{{nA, false}, {nB, true}} {
				sum := &pool.sums[stage][2*lay]
				if f.factorB {
					sum = &pool.sums[stage][2*lay+1]
				}
				p := sum.take(i, 0, f.n, f.n)
				for j := range p.Data {
					p.Data[j] = math.NaN()
				}
				tensor.SnapClone(foldStat(first+i, rows, f.n, f.factorB)).GramInto(p)
				sum.arrive(pool.epoch, i, e.foldsEarly())
			}
		}
		if _, err = e.syncCurvature(pool, stage); err != nil {
			return nil, nil, err
		}
		if a, b, err = e.foldFactors(pool, stage, lay, scaleB); err != nil {
			return nil, nil, err
		}
		// The sums stay the pool's until the inversion hands them on: keep
		// copies past the reset.
		return a.Clone(), b.Clone(), nil
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
// ascending order. It drives the one running sum for every kind it carries
// — a gradient's (one matrix, written through a header over the
// accumulator), a Kronecker factor's (one pooled matrix) and a weight and
// bias delta set (two matrices of different shapes) — over all 24 arrival
// orders of 4 contributions whose values mix −0, subnormals and magnitudes
// far enough apart that every addition rounds, so folding in arrival order
// differs.
func TestPrefixFoldMatchesChainFold(t *testing.T) {
	const n, rows, cols = 4, 8, 8
	rng := tensor.NewRNG(52)
	mixed := func(rows, cols int) *tensor.Matrix {
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
		return c
	}
	contrib, bias := make([]*tensor.Matrix, n), make([]*tensor.Matrix, n)
	for m := range contrib {
		contrib[m] = mixed(rows, cols)
	}
	for m := range bias {
		bias[m] = mixed(1, cols)
	}
	chain := func(cs []*tensor.Matrix, order []int) *tensor.Matrix {
		parts := make([][]float64, len(order))
		for i, m := range order {
			parts[i] = cs[m].Data
		}
		dst := tensor.Zeros(cs[0].Rows, cs[0].Cols)
		if _, err := (transport.Loopback{}).AllReduce("fold", dst.Data, nil, parts); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	want := chain(contrib, []int{0, 1, 2, 3})
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
		if !bitsEqual(chain(contrib, order), want) {
			distinct++
		}
	}
	if distinct < len(orders)/2 {
		t.Fatalf("only %d of %d arrival orders fold to other bits: the values cannot tell a prefix fold from an arrival-order one", distinct, len(orders))
	}

	// headers are a gradient sum's views of the accumulators it writes.
	headers := func(accs ...*tensor.Matrix) []*tensor.Matrix {
		hs := make([]*tensor.Matrix, len(accs))
		for i, a := range accs {
			hs[i] = &tensor.Matrix{Rows: a.Rows, Cols: a.Cols, Data: a.Data}
		}
		return hs
	}
	for _, kind := range []struct {
		name    string
		sum     []*tensor.Matrix   // nil: a pooled sum
		contrib [][]*tensor.Matrix // [k][m]
	}{
		{"gradient", headers(tensor.Zeros(rows, cols)), [][]*tensor.Matrix{contrib}},
		{"factor", nil, [][]*tensor.Matrix{contrib}},
		{"weight-and-bias", headers(tensor.Zeros(rows, cols), tensor.Zeros(1, cols)), [][]*tensor.Matrix{contrib, bias}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			var s runningSum
			s.init(n, make([]transport.Reduction, len(kind.contrib)), kind.sum, nil)
			var epoch int64
			wants := make([]*tensor.Matrix, len(kind.contrib))
			for k, cs := range kind.contrib {
				wants[k] = chain(cs, []int{0, 1, 2, 3})
			}
			// A run folds the contributions as drive makes them arrive.
			run := func(drive func(arrive func(m int))) []*tensor.Matrix {
				epoch++
				s.scrub()
				for _, h := range kind.sum {
					for i := range h.Data {
						h.Data[i] = math.NaN() // the fold overwrites whatever the accumulator held
					}
				}
				drive(func(m int) {
					for k, cs := range kind.contrib {
						copy(s.take(m, k, cs[m].Rows, cs[m].Cols).Data, cs[m].Data)
					}
					s.arrive(epoch, m, true)
				})
				return s.sum
			}
			check := func(got []*tensor.Matrix, where string, order []int) {
				t.Helper()
				for k, w := range wants {
					if got[k] == nil || !bitsEqual(got[k], w) {
						t.Fatalf("%s, arrivals %v: matrix %d of the running sum differs from the chain fold", where, order, k)
					}
				}
			}
			for _, order := range orders {
				check(run(func(arrive func(m int)) {
					for _, m := range order {
						arrive(m)
					}
				}), "one device", order)
				// Two devices: micro-batches 0, 1 on one and 2, 3 on the
				// other, each arriving in the order's relative order,
				// concurrently.
				for rep := 0; rep < 8; rep++ {
					check(run(func(arrive func(m int)) {
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
					}), "two devices", order)
				}
			}
			for m, set := range s.parts {
				if slices.ContainsFunc(set, func(p *tensor.Matrix) bool { return p != nil }) {
					t.Fatalf("contribution of micro-batch %d still held after its fold", m)
				}
			}
			s.scrub()
		})
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

// errWroteThenFailed is flakyGroup's injected collective failure.
var errWroteThenFailed = errors.New("factor all-reduce wrote its destination, then failed")

// flakyGroup stands in for rank 0 of a two-rank group on one process: it
// reduces like a Loopback — this rank's contributions only — counts the
// peer it stands in for at the startup barrier, and makes its next fails
// factor reductions write their Dst and then fail.
type flakyGroup struct {
	transport.Loopback
	fails, calls atomic.Int32
}

func (*flakyGroup) Size() int { return 2 }

func (g *flakyGroup) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	if name == "init/barrier" {
		dst[0] = 2
		return 0, nil
	}
	n, err := g.Loopback.AllReduce(name, dst, base, parts)
	if err == nil && strings.HasPrefix(name, "f") {
		g.calls.Add(1)
		if g.fails.Add(-1) >= 0 {
			return n, errWroteThenFailed
		}
	}
	return n, err
}

// AllReduceBatch runs the batch through flakyGroup's AllReduce, which the
// embedded Loopback's batch would pass by.
func (g *flakyGroup) AllReduceBatch(rs []transport.Reduction) (int64, error) {
	for i := range rs {
		if _, err := g.AllReduce(rs[i].Name, rs[i].Dst, rs[i].Base, rs[i].Parts); err != nil {
			return 0, fmt.Errorf("all-reduce %q: %w", rs[i].Name, err)
		}
	}
	return 0, nil
}

// TestReductionErrorIsSticky: a reduction runs once per epoch, and a
// failed one's error is sticky. A second reduce of the same sums returns
// the first error and adds nothing — not onto the half-written sum, not
// into a fresh one — and the scrub returns every held buffer. In an engine
// with a fault plan, the retried sync-curvature and the stage's inversions
// so degrade instead of exchanging the stage again.
func TestReductionErrorIsSticky(t *testing.T) {
	tensor.SetPoolAudit(true)
	defer tensor.SetPoolAudit(false)
	t.Run("reduce", func(t *testing.T) {
		const n, dim = 4, 6
		base := tensor.PoolLive()
		var held byteGauge
		g := &flakyGroup{}
		g.fails.Store(1)
		pool := newKFACGenPool(1, n, 1, 1, &held)
		for m := 0; m < n; m++ {
			for f := range pool.sums[0] {
				copy(pool.sums[0][f].take(m, 0, dim, dim).Data, foldStat(m, dim, dim, f == 1).Data)
				pool.sums[0][f].arrive(pool.epoch, m, false) // held, as on a rank > 0
			}
		}
		a, b := &pool.sums[0][0], &pool.sums[0][1]
		_, err := reduce(g, pool.epoch, pool.ops[0][:2], a, b)
		if !errors.Is(err, errWroteThenFailed) {
			t.Fatalf("first reduce: %v, want the injected failure", err)
		}
		written := a.sum[0].Clone()
		_, again := reduce(g, pool.epoch, pool.ops[0][:2], a, b)
		if again != err {
			t.Fatalf("second reduce in the epoch: %v, want the first error %v", again, err)
		}
		if c := g.calls.Load(); c != 1 {
			t.Fatalf("the group ran %d factor reductions, want 1: the failed one must not run again", c)
		}
		if !bitsEqual(a.sum[0], written) {
			t.Fatal("the second reduce added into the half-written sum")
		}
		pool.reset()
		if live := tensor.PoolLive(); live != base {
			t.Fatalf("PoolLive %d after the scrub, steady state %d", live, base)
		}
		if cur := held.cur.Load(); cur != 0 {
			t.Fatalf("the ledger holds %d bytes after the scrub, want 0", cur)
		}
	})
	t.Run("engine", func(t *testing.T) {
		m, c := newModelAndCorpus(t)
		g := &flakyGroup{}
		e, err := NewWithConfig(m, Config{
			Method: "1f1b", Stages: 2, MicroBatches: 2, RefreshSteps: 2, Transport: g,
			FaultPlan: mustParsePlan(t, "stall:op=forward,delay=1us,count=1"),
			OpRetries: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableKFAC(faultKFACOpts(), 2); err != nil {
			t.Fatal(err)
		}
		opt := optim.NewLAMB(m.Params(), 0.01)
		e.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
		train := func() *StepResult {
			t.Helper()
			res, err := e.TrainRound(roundBatches(c, 2, 8, m.Config.SeqLen))
			if err != nil {
				t.Fatalf("a failed factor exchange must degrade the round, not abort it: %v", err)
			}
			return res[0]
		}
		train()
		base := tensor.PoolLive()
		g.fails.Store(1)
		calls := g.calls.Load()
		if res := train(); !res.Degraded || !strings.Contains(res.DegradedReason, errWroteThenFailed.Error()) {
			t.Fatalf("round not degraded by the failed factor exchange: %+v", res)
		}
		// Each stage reduces its factor sums once — one AllReduce per factor
		// on a group that does not batch, the failed exchange stopping after
		// its first — and neither the retry nor the stage's inversions
		// exchange them again.
		perStage := 2 * len(e.sets[0].stages[0].layers)
		if got, want := g.calls.Load()-calls, int32(perStage*(e.Stages()-1)+1); got != want {
			t.Fatalf("%d factor reductions in the degraded round, want %d", got, want)
		}
		if live := tensor.PoolLive(); live != base {
			t.Fatalf("PoolLive %d after the degraded round, steady state %d", live, base)
		}
		if d, p := e.held.deltas.cur.Load(), e.held.partials.cur.Load(); d != 0 || p != 0 {
			t.Fatalf("the ledger holds %d delta and %d partial bytes after the degraded round, want 0", d, p)
		}
		if res := train(); res.Degraded {
			t.Fatalf("recovery round degraded: %s", res.DegradedReason)
		}
	})
}
