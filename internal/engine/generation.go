package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kfac"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
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
// consumed (Release) by the curvature op that reduces them; each factor's
// Gram partials and sum belong to its runningSum, which takes a partial
// from the pool, adds it into the sum and Puts it as soon as every lower
// micro-batch's is in — on a rank that folds early — or else holds it
// until the stage's sync-curvature reduces the stage; the layer's first
// inversion hands the sums on to SetFactors; and reset scrubs whatever an aborted round left
// behind. So a factor holds one pooled sum plus the partials that arrived
// ahead of a lower micro-batch's. The slice structure itself is allocated
// once at EnableKFAC and reused every round. Snapshots are
// precision-tagged Snaps so float32 compute mode halves their resident
// footprint — they are the dominant term of the paper's Msave_err memory
// cost — while the curvature partials and folded factors stay float64.
type kfacGenPool struct {
	actsSnap  [][][]tensor.Snap // [stage][gmicro][layer]
	gradsSnap [][][]tensor.Snap // [stage][gmicro][layer]
	// sums[s][f] is factor f's running sum (A factors even, B odd, like
	// stage.layerOf), and ops[s][f] its reduction: ops[s] is the batch the
	// stage's sums cross the group in, stageSums[s] the sums it reduces
	// (syncCurvature).
	sums      [][]runningSum
	ops       [][]transport.Reduction
	stageSums [][]*runningSum
	// epoch counts the generations the pool has held: its sums re-arm on
	// the first touch in a new one.
	epoch int64
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

// newKFACGenPool builds a pool whose partials and sums count in held (nil
// for a pool built outside an engine).
func newKFACGenPool(stages, perStep, layers, replicas int, held *byteGauge) *kfacGenPool {
	p := &kfacGenPool{
		actsSnap:  snap3(stages, perStep, layers),
		gradsSnap: snap3(stages, perStep, layers),
		sums:      make([][]runningSum, stages),
		ops:       make([][]transport.Reduction, stages),
		stageSums: make([][]*runningSum, stages),
		epoch:     1,
		folded:    make([][]bool, stages),
		chains:    make([][][]kfac.FactorChain, stages),
	}
	for s := range p.sums {
		p.sums[s] = make([]runningSum, 2*layers)
		p.ops[s] = make([]transport.Reduction, 2*layers)
		for f := range p.sums[s] {
			p.ops[s][f].Name = fmt.Sprintf("f%c/%d/%d", "AB"[f%2], s, f/2)
			p.sums[s][f].init(perStep, p.ops[s][f:f+1], nil, held)
			p.stageSums[s] = append(p.stageSums[s], &p.sums[s][f])
		}
		p.folded[s] = make([]bool, layers)
		p.chains[s] = make([][]kfac.FactorChain, 2*layers)
		for f := range p.chains[s] {
			p.chains[s][f] = make([]kfac.FactorChain, replicas)
		}
	}
	return p
}

// reset scrubs the pool for its next generation: matrices still held
// (snapshots never reduced, partials and sums never handed on, chains
// never finished — the residue of an aborted round) return to the
// workspace pool, the fold markers clear, and the sums move to a new
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
	scrubSnaps(p.actsSnap)
	scrubSnaps(p.gradsSnap)
	for _, stage := range p.sums {
		for f := range stage {
			stage[f].scrub()
		}
	}
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
