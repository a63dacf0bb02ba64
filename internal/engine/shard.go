package engine

import (
	"sort"

	"repro/internal/tensor"
)

// ZeRO-style parameter sharding across the in-process replica axis
// (Config.ShardParams). Each stage's parameters are partitioned across the
// W replicas — greedy by size, largest first, onto the least-loaded owner —
// and every secondary replica detaches the storage of the parameters it
// does not own (Matrix.Data = nil; the headers keep their shapes). The
// primary replica stays full: it is the master copy the optimizer updates,
// the checkpoint subject, and the gather source.
//
// Gather-on-use: a secondary replica's forward or backward op re-attaches
// pooled buffers for its stage's non-owned parameters on entry — values
// copied from the primary (bit-identical to what the per-step broadcast
// would have put there), gradient accumulators zeroed — and releases them
// back to the pool when the op exits. The attach mutates Matrix.Data in
// place because the replica's modules hold the very *Matrix headers that
// were detached. Gather state is kept per module set: one device goroutine
// owns a set's stage (the engine's ownership contract), so the attach, the
// op and the release run on that goroutine with nothing else looking, and
// a Chimera replica's two directions — two sets, two devices, possibly the
// same stage at the same time — each gather their own pooled copy. The
// per-micro-batch gradient snapshot runs before the op exits, so the
// training math — and the fixed collective fold order — is unchanged:
// sharding only changes how long a secondary replica's parameter bytes
// stay resident.

// shardState is the engine's sharding bookkeeping: the owner map and, per
// (module set, stage, param), the pooled buffer attached while a gather is
// live (nil when detached or owned).
type shardState struct {
	// owner[s][k] is the replica that keeps stage s's k-th parameter
	// resident (indices align with moduleSet.stageParams[s]).
	owner [][]int
	// vals[i][s][k] / grads[i][s][k] hold the pooled matrices backing a
	// live gather on module set i (Engine.setIndex; sized for both
	// pipelines of every replica). Entry [i][s] is touched only by the
	// device that owns stage s of set i.
	vals  [][][]*tensor.Matrix
	grads [][][]*tensor.Matrix
}

// initShards partitions every stage's parameters across the replica axis
// and detaches the non-owned storage of each secondary replica. Called
// once from NewWithConfig when Config.ShardParams is set, before any
// up-pipeline set exists (buildUpSets mirrors the detachment).
func (e *Engine) initShards() {
	w := e.cfg.Replicas
	sh := &shardState{
		owner: make([][]int, e.cfg.Stages),
		vals:  make([][][]*tensor.Matrix, 2*w),
		grads: make([][][]*tensor.Matrix, 2*w),
	}
	for s, params := range e.sets[0].stageParams {
		// Greedy balance: place parameters largest-first on the currently
		// least-loaded replica — deterministic (stable sort, lowest-index
		// tie-break), near-even by bytes even when one embedding dwarfs the
		// rest of the stage.
		order := make([]int, len(params))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(i, j int) bool {
			return params[order[i]].NumElements() > params[order[j]].NumElements()
		})
		load := make([]int, w)
		owner := make([]int, len(params))
		for _, k := range order {
			pick := 0
			for r := 1; r < w; r++ {
				if load[r] < load[pick] {
					pick = r
				}
			}
			owner[k] = pick
			load[pick] += params[k].NumElements()
		}
		sh.owner[s] = owner
	}
	for i := range sh.vals {
		sh.vals[i] = make([][]*tensor.Matrix, e.cfg.Stages)
		sh.grads[i] = make([][]*tensor.Matrix, e.cfg.Stages)
		for s, params := range e.sets[0].stageParams {
			sh.vals[i][s] = make([]*tensor.Matrix, len(params))
			sh.grads[i][s] = make([]*tensor.Matrix, len(params))
		}
	}
	for r := 1; r < w; r++ {
		for s, params := range e.sets[r].stageParams {
			for k, p := range params {
				if sh.owner[s][k] != r {
					p.Value.Data = nil
					p.Grad.Data = nil
				}
			}
		}
	}
	e.shard = sh
}

// gatherStage attaches pooled storage to the non-owned stage-s parameters
// of module set i: values copied from the primary, and — for backward ops
// — zeroed gradient accumulators. Runs on the device that owns the set's
// stage. No-op for the primary replica's sets and for unsharded engines.
func (e *Engine) gatherStage(i, s int, withGrads bool) {
	sh := e.shard
	r := i % e.cfg.Replicas
	if sh == nil || r == 0 {
		return
	}
	params := e.sets[i].stageParams[s]
	prim := e.sets[0].stageParams[s]
	for k, p := range params {
		if sh.owner[s][k] == r {
			continue
		}
		if p.Value.Data == nil {
			m := tensor.Get(p.Value.Rows, p.Value.Cols)
			copy(m.Data, prim[k].Value.Data)
			p.Value.Data = m.Data
			sh.vals[i][s][k] = m
		}
		if withGrads && p.Grad.Data == nil {
			g := tensor.Get(p.Grad.Rows, p.Grad.Cols)
			g.Zero()
			p.Grad.Data = g.Data
			sh.grads[i][s][k] = g
		}
	}
}

// releaseStage detaches module set i's gathered stage-s parameters again
// and returns their buffers to the pool, after the op consumed the
// parameters (for backward: after the gradient snapshot moved the
// accumulated deltas out).
func (e *Engine) releaseStage(i, s int) {
	sh := e.shard
	if sh == nil || i%e.cfg.Replicas == 0 {
		return
	}
	params := e.sets[i].stageParams[s]
	for k, p := range params {
		if m := sh.vals[i][s][k]; m != nil {
			p.Value.Data = nil
			sh.vals[i][s][k] = nil
			tensor.Put(m)
		}
		if g := sh.grads[i][s][k]; g != nil {
			p.Grad.Data = nil
			sh.grads[i][s][k] = nil
			tensor.Put(g)
		}
	}
}

// ShardStats reports the parameter-residency accounting of a ShardParams
// engine, summed over the secondary replicas' module sets (the primary is
// always full): FullBytes is what they would hold unsharded (values plus
// gradient accumulators; an up-pipeline set adds accumulators only — its
// values are its replica's), ResidentBytes what they hold steady-state
// with sharding on. Resident/Full approaches 1/W as the per-stage split
// evens out. ok is false when sharding is not enabled.
func (e *Engine) ShardStats() (full, resident int64, ok bool) {
	if e.shard == nil {
		return 0, 0, false
	}
	w := e.cfg.Replicas
	for i, set := range e.sets {
		r := i % w
		if r == 0 {
			continue
		}
		for s, params := range set.stageParams {
			for k, p := range params {
				b := int64(p.NumElements()) * 8 // grad
				if i < w {
					b *= 2 // value + grad
				}
				full += b
				if e.shard.owner[s][k] == r {
					resident += b
				}
			}
		}
	}
	return full, resident, true
}
