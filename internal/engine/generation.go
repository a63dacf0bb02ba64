package engine

import (
	"sync/atomic"

	"repro/internal/kfac"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
)

// kfacGenPool holds one statistics *generation* of the K-FAC refresh
// pipeline: the per-micro-batch activation/gradient snapshots taken in the
// generation's collect round, the partial Kronecker-factor products the
// scheduled Curvature ops derive from them and the running sums those fold
// into, and the per-layer fold markers. Carry is one round, so the engine
// double-buffers exactly two pools:
// overlapped refresh windows (Config.OverlapRounds) have at most two
// generations in flight — the round's own collection writing one pool while
// the previous generation's carried ops (pipeline.Op.Generation = 1) fold
// and invert out of the other — without a new window's snapshots ever
// clobbering factors still being folded. A pool retires at the end of the
// round after its collection. Serialized rounds use the same pools with at
// most one live generation, so the two modes share one execution path.
//
// All matrices cycle through the tensor workspace pools: snapshots are
// consumed (Release) by the curvature op that reduces them; a partial is
// added into its factor's running sum and Put as soon as every lower
// micro-batch's is in (putPartial) — on a rank that folds early — or else
// held until the inversion op that exchanges the layer; the inversion
// hands the sums on to SetFactors; and reset scrubs whatever an aborted
// round left behind. So a factor holds one pooled sum plus the partials
// that arrived ahead of a lower micro-batch's. The slice structure itself is
// allocated once at EnableKFAC and reused every round. Snapshots are
// precision-tagged Snaps so float32 compute mode halves their resident
// footprint — they are the dominant term of the paper's Msave_err memory
// cost — while the curvature partials and folded factors stay float64.
type kfacGenPool struct {
	actsSnap  [][][]tensor.Snap    // [stage][gmicro][layer]
	gradsSnap [][][]tensor.Snap    // [stage][gmicro][layer]
	curvA     [][][]*tensor.Matrix // [stage][layer][gmicro], partials waiting for their sum
	curvB     [][][]*tensor.Matrix // [stage][layer][gmicro]
	sumA      [][]factorSum        // [stage][layer], the running sums of curvA
	sumB      [][]factorSum        // [stage][layer]
	// epoch counts the generations the pool has held: its sums' prefix
	// folds re-arm on the first touch in a new one (prefixFold).
	epoch int64
	// held is the engine's byte ledger the pool's partials and sums count
	// in (nil for a pool built outside an engine).
	held *byteGauge
	// folded marks layers whose factors this generation already folded into
	// the preconditioner's EMA (first inversion touch, under the layer
	// lock) — the guard that makes one generation fold exactly once even
	// when its two factor inversions execute in different rounds.
	folded [][]bool
	// chains holds the inversion chains of the generation's factors between
	// their steps, [stage][factor][replica] (each replica runs its own when
	// every replica inverts the whole stage): a chain's ops share this
	// generation, so its work copy and intermediates live here, returned to
	// the workspace pool by the chain's last step, a degrade, or reset.
	chains [][][]kfac.FactorChain
	// totals carries the loss denominators of the generation's statistics
	// batch (the collect round's first step), so a carried fold scales the
	// B factors with the generation's own batch, not the folding round's.
	totals pipemodel.Totals
	// failed marks the generation degraded: one of its refresh ops failed
	// past the retry budget, so the generation is incomplete and must never
	// be served as a stale generation or carried forward. Set by the
	// resilience layer, consumed at round end, cleared by reset.
	failed atomic.Bool
}

// factorSum is one Kronecker factor's running sum: its prefix fold and the
// pooled matrix the partials add into (nil until the first is in, and
// again once the inversion handed it on).
type factorSum struct {
	prefixFold
	acc *tensor.Matrix
}

func newKFACGenPool(stages, perStep, layers, replicas int) *kfacGenPool {
	p := &kfacGenPool{
		actsSnap:  snap3(stages, perStep, layers),
		gradsSnap: snap3(stages, perStep, layers),
		curvA:     mat3(stages, layers, perStep),
		curvB:     mat3(stages, layers, perStep),
		sumA:      make([][]factorSum, stages),
		sumB:      make([][]factorSum, stages),
		epoch:     1,
		folded:    make([][]bool, stages),
		chains:    make([][][]kfac.FactorChain, stages),
	}
	for s := range p.folded {
		p.sumA[s] = make([]factorSum, layers)
		p.sumB[s] = make([]factorSum, layers)
		for li := range p.sumA[s] {
			p.sumA[s][li].prefixFold = newPrefixFold(perStep)
			p.sumB[s][li].prefixFold = newPrefixFold(perStep)
		}
		p.folded[s] = make([]bool, layers)
		p.chains[s] = make([][]kfac.FactorChain, 2*layers)
		for f := range p.chains[s] {
			p.chains[s][f] = make([]kfac.FactorChain, replicas)
		}
	}
	return p
}

// factor returns one factor's partial slots and running sum.
func (p *kfacGenPool) factor(s, li int, factorB bool) ([]*tensor.Matrix, *factorSum) {
	if factorB {
		return p.curvB[s][li], &p.sumB[s][li]
	}
	return p.curvA[s][li], &p.sumA[s][li]
}

// putPartial stores micro-batch m's Gram partial of one factor in its slot
// and, when early (this rank starts the transport chain), adds it into the
// factor's running sum as soon as every lower micro-batch's is in, with
// every waiting one after it — the first onto +0 — returning their buffers
// to the pool.
func (p *kfacGenPool) putPartial(s, li int, factorB bool, m int, part *tensor.Matrix, early bool) {
	parts, sum := p.factor(s, li, factorB)
	parts[m] = part
	p.count(bytesOf(part))
	if !early {
		return
	}
	for i := sum.arrive(p.epoch, m); i >= 0; i = sum.advance() {
		if i == 0 {
			sum.acc = tensor.Get(parts[0].Rows, parts[0].Cols)
			p.count(bytesOf(sum.acc))
		}
		foldPart(sum.acc, parts[i], i == 0)
		p.count(-bytesOf(parts[i]))
		tensor.Put(parts[i])
		parts[i] = nil
	}
}

// count moves the byte ledger the pool counts in.
func (p *kfacGenPool) count(n int64) {
	if p.held != nil {
		p.held.add(n)
	}
}

// reset scrubs the pool for its next generation: matrices still held
// (snapshots never reduced, partials and sums never folded, chains never
// finished — the residue of an aborted round) return to the workspace
// pool, the fold markers clear, and the sums' prefix folds move to a new
// epoch.
func (p *kfacGenPool) reset() {
	scrubSnaps := func(m [][][]tensor.Snap) {
		for i := range m {
			for j := range m[i] {
				for k, v := range m[i][j] {
					if v.Valid() {
						v.Release()
						m[i][j][k] = tensor.Snap{}
					}
				}
			}
		}
	}
	scrub := func(m [][][]*tensor.Matrix) {
		for i := range m {
			for j := range m[i] {
				for k, v := range m[i][j] {
					if v != nil {
						p.count(-bytesOf(v))
						tensor.Put(v)
						m[i][j][k] = nil
					}
				}
			}
		}
	}
	scrubSums := func(sums [][]factorSum) {
		for i := range sums {
			for j := range sums[i] {
				if acc := sums[i][j].acc; acc != nil {
					p.count(-bytesOf(acc))
					tensor.Put(acc)
					sums[i][j].acc = nil
				}
			}
		}
	}
	scrubSnaps(p.actsSnap)
	scrubSnaps(p.gradsSnap)
	scrub(p.curvA)
	scrub(p.curvB)
	scrubSums(p.sumA)
	scrubSums(p.sumB)
	p.epoch++
	for _, stage := range p.chains {
		for _, factor := range stage {
			for i := range factor {
				factor[i].Release()
			}
		}
	}
	for s := range p.folded {
		for l := range p.folded[s] {
			p.folded[s][l] = false
		}
	}
	p.totals = pipemodel.Totals{}
	p.failed.Store(false)
}
