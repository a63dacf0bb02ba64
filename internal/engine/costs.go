package engine

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// hostProfile is the device the engine prices its packing on: every op
// class at one rate per FLOP — the blocked inverse runs its O(n³) terms on
// the same packed GEMM driver as forward and backward, so no class is priced
// below GEMM efficiency — with no byte priced (unbounded memory bandwidth)
// and no launch overhead. The rate is nominal, not measured: the packer
// reads proportions, and the proportions are the model's FLOPs (doc.go,
// "Cost model"); it sets compute against the interconnect models only where
// the topology runs a collective.
var hostProfile = hardware.GPU{
	Name: "host", PeakFLOPs: 10e9, MemBandwidth: math.Inf(1),
	GemmEfficiency: 1, SmallOpEfficiency: 1,
}

// modelArch reads the transformer shape of the model the engine holds off
// its blocks: width, feed-forward width, heads, sequence length. The op
// classes pipeline.CostsFor prices are arch's K-FAC layer list, so every
// stage's dense layers must be that list, block by block, in factor order.
func modelArch(set *moduleSet) (arch.Transformer, error) {
	blocks := set.model.PipelineBlocks()
	b := blocks[0]
	a := arch.Transformer{
		Name: "engine", DModel: b.Attn.DModel, DFF: b.FF1.DOut(), Heads: b.Attn.Heads,
		SeqLen: set.model.SeqLen(), Blocks: len(blocks),
	}
	want := a.KFACLayers()
	for _, st := range set.stages {
		for i, l := range st.layers {
			if w := want[i%len(want)]; l.DIn() != w.DIn || l.DOut() != w.DOut {
				return a, fmt.Errorf("engine: stage %d dense layer %d is %dx%d, the %s layer of a d=%d d_ff=%d block is %dx%d: cannot price the model's ops",
					st.index, i, l.DIn(), l.DOut(), w.Name, a.DModel, a.DFF, w.DIn, w.DOut)
			}
		}
	}
	return a, nil
}

// shapeCosts prices one stage's ops from the model the engine holds with
// seqs sequences per micro-batch: forward, backward (2x forward), curvature
// per factor (2·d²·tokens), inversion per factor (d³), precondition and the
// optimizer update, by the op classes pipeline.CostsFor applies to arch
// shapes, on hostProfile. The collectives are priced where the parent
// topology runs them: sync-grad across replicas, sync-curvature also across
// an inversion-parallel stage's owners and, on a multi-rank group, as what
// runs there: the stage's factor sums in float64, one batch over the ring's
// ranks (hardware.ChainAllReduceCost, each sum cut into the transport's
// chunks). A factor whose inversion outlasts a stage forward becomes an
// inversion chain, its steps priced by the same inversion class on the
// FLOPs of each step of the blocked inverse.
func (e *Engine) shapeCosts(seqs int) (pipeline.StageCosts, error) {
	cc := pipeline.CostConfig{
		Arch: e.shape, BlocksPerStage: len(e.sets[0].stages[0].blocks), MicroBatch: seqs, GPU: hostProfile,
	}
	if e.cfg.Replicas > 1 || e.cfg.InversionParallel {
		cc.DataParallelWidth = max(e.cfg.Replicas*e.group.Size(), 2)
		if e.multiRank {
			cc.Transport = "ring"
		}
	}
	c, err := pipeline.CostsFor(cc)
	if err != nil {
		return c, fmt.Errorf("engine: pricing the model's ops: %w", err)
	}
	if e.cfg.Replicas == 1 {
		c.SyncGrad = 0
	}
	if e.multiRank {
		var floats, chunks int
		for f := range c.InversionUnits {
			n := e.factorDim(f) * e.factorDim(f)
			floats += n
			chunks += max(1, (n+transport.DefaultChunkFloats-1)/transport.DefaultChunkFloats)
		}
		c.SyncCurvature = hardware.ChainAllReduceCost(int64(8*floats), e.group.Size(), chunks, hardware.DefaultInterconnect)
	}
	for f, u := range c.InversionUnits {
		dim := e.factorDim(f)
		steps := tensor.InverseChainFLOPs(dim)
		if u <= c.Forward || len(steps) == 0 {
			continue
		}
		if c.InversionChains == nil {
			c.InversionChains = make([][]hardware.Microseconds, len(c.InversionUnits))
		}
		for _, flops := range steps {
			c.InversionChains[f] = append(c.InversionChains[f], pipeline.InversionCost(hostProfile, dim, flops))
		}
	}
	return c, nil
}

// factorDim is the dimension of a stage's Kronecker factor f: the input
// width of layer f/2 for an A factor, its output width for a B factor.
func (e *Engine) factorDim(f int) int {
	l := e.sets[0].stages[0].layers[f/2]
	if f%2 == 1 {
		return l.DOut()
	}
	return l.DIn()
}

// price sets the micro-batch shape the engine's own costs are priced at.
// An adaptive round length derived from the old price is re-derived once
// a round at the new one committed.
func (e *Engine) price(seqs int) error {
	c, err := e.shapeCosts(seqs)
	if err != nil {
		return err
	}
	e.microSeqs, e.priced = seqs, c
	e.adaptPending = e.kfacPre != nil && e.cfg.RefreshSteps == AdaptiveRefreshSteps
	return nil
}

// reprice follows a change of the micro-batch shape: the costs are priced
// anew and the schedule is rebuilt from them. Refresh work in flight
// belongs to the old schedule's carry structure: it is discarded and the
// next round refreshes. On error nothing changed.
func (e *Engine) reprice(seqs int) error {
	oldSeqs, oldCosts := e.microSeqs, e.priced
	if err := e.price(seqs); err != nil {
		return err
	}
	if err := e.rebuildSchedule(); err != nil {
		e.microSeqs, e.priced = oldSeqs, oldCosts
		return err
	}
	if e.kfacPre != nil {
		e.dropGenerations(false)
	}
	return nil
}

// adaptRoundLength re-derives an adaptive round length from the costs the
// engine packs with now, so K follows the shape the rounds run rather than
// the one EnableKFAC priced. It runs after a round committed — that round
// ran the length its caller sized its batches for — and a new length takes
// effect from the next round (RoundSteps reports it): the refresh cadence
// keeps its rounds per refresh, and refresh work in flight belongs to the
// old round's carry structure and is discarded. On error the engine keeps
// its round length.
func (e *Engine) adaptRoundLength() error {
	k, err := schedule.AdaptiveRoundLength(e.ScheduleConfig(e.priced))
	if err != nil {
		return fmt.Errorf("engine: deriving adaptive round length: %w", err)
	}
	e.adaptPending = false
	if k == e.roundLen {
		return nil
	}
	oldLen, oldEvery := e.roundLen, e.refreshEvery
	e.roundLen, e.refreshEvery = k, e.refreshEvery/oldLen*k
	if err := e.rebuildSchedule(); err != nil {
		e.roundLen, e.refreshEvery, e.adaptPending = oldLen, oldEvery, true
		return err
	}
	e.dropGenerations(false)
	return nil
}
