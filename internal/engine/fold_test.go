package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bert"
	"repro/internal/kfac"
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
				dst     [][]*tensor.Matrix
			}{{nA, false, pool.curvA[stage]}, {nB, true, pool.curvB[stage]}} {
				p := tensor.Get(f.n, f.n)
				for j := range p.Data {
					p.Data[j] = math.NaN()
				}
				tensor.SnapClone(foldStat(first+i, rows, f.n, f.factorB)).GramInto(p)
				f.dst[lay][i] = p
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
