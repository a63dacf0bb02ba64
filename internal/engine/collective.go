package engine

import (
	"fmt"
	"sort"

	"repro/internal/nn"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the engine's glue onto the transport package: every
// collective of the executor — the per-stage gradient all-reduce, the
// K-FAC factor fold, the per-step loss reduction of multi-process groups —
// routes through the engine's transport.Group. With the default Loopback
// group the routed fold is instruction-for-instruction the historical
// in-process collective (copy the carried base, add each micro-batch delta
// in ascending order), allocation-free on the steady-state path; with a
// Ring group the same calls put the partials on a wire, and the chain fold
// order keeps the results bit-identical.
//
// Determinism contract: every reduction runs at micro-batch granularity in
// a single fixed order — ascending global micro-batch index, where rank r
// of a W_g-rank group running R local replicas owns global micro-batches
// [r*R*M, (r+1)*R*M) of each step. The transport's fold contract realizes
// exactly that order across ranks, so gradients, K-FAC factors and losses
// are bit-identical for any (group size, replica count, schedule, worker
// count) splitting of the same global batch.
//
// Buffer ownership: the per-micro-batch delta buffers and the carried
// pre-step accumulators are pooled matrices (tensor.Get/GetClone) owned by
// the run state. foldParams consumes (Puts and nils) the deltas it folds,
// but leaves the carried buffers alone: they are the rollback state of an
// aborted step, released by the run state only once the whole step
// succeeded.

// initCollectives prepares the engine's transport routing: the resolved
// group (Loopback when none was configured) and the per-stage fold batch —
// one transport.Reduction per parameter with its collective name and a
// reused part-view slice, so the steady-state collective path does not
// allocate.
func (e *Engine) initCollectives() {
	e.group = e.cfg.Transport
	if e.group == nil {
		e.group = transport.Loopback{}
	}
	e.multiRank = e.group.Size() > 1
	perStep := e.cfg.MicroBatches * e.cfg.Replicas
	e.foldOps = make([][]transport.Reduction, e.cfg.Stages)
	for s, params := range e.sets[0].stageParams {
		e.foldOps[s] = newFoldOps(fmt.Sprintf("g/%d", s), len(params), perStep)
	}
}

// newFoldOps returns n reductions named prefix/0 .. prefix/n-1, each with
// room for parts part views.
func newFoldOps(prefix string, n, parts int) []transport.Reduction {
	ops := make([]transport.Reduction, n)
	for k := range ops {
		ops[k] = transport.Reduction{Name: fmt.Sprintf("%s/%d", prefix, k), Parts: make([][]float64, parts)}
	}
	return ops
}

// syncInitialParams aligns a multi-rank group's starting weights on rank
// 0's; elastic resyncs (resyncFrom) reuse the same exchange with the state
// owner as the root.
func (e *Engine) syncInitialParams() error { return e.syncParamsFrom(0) }

// syncParamsFrom aligns a multi-rank group's weights: a shape handshake
// (parameter count and sizes broadcast from the root rank and verified
// everywhere — a mismatched model configuration fails here with an
// attributed error instead of a silently diverging group) followed by a
// broadcast of the root's parameter values. Steady state needs no
// re-broadcast: every rank folds identical gradients and runs the
// optimizer in lockstep, so parameters stay bit-identical by induction.
func (e *Engine) syncParamsFrom(root int) error {
	params := e.sets[0].params
	desc := make([]float64, 1+len(params))
	if e.group.Rank() == root {
		desc[0] = float64(len(params))
		for i, p := range params {
			desc[i+1] = float64(p.NumElements())
		}
	}
	if _, err := e.group.Broadcast("init/shape", root, desc); err != nil {
		return fmt.Errorf("engine: parameter shape handshake: %w", err)
	}
	if int(desc[0]) != len(params) {
		return fmt.Errorf("engine: rank %d has %d parameters, rank %d has %d (group must build identical models)",
			e.group.Rank(), len(params), root, int(desc[0]))
	}
	for i, p := range params {
		if int(desc[i+1]) != p.NumElements() {
			return fmt.Errorf("engine: rank %d parameter %s has %d elements, rank %d has %d",
				e.group.Rank(), p.Name, p.NumElements(), root, int(desc[i+1]))
		}
		if _, err := e.group.Broadcast(fmt.Sprintf("init/p/%d", i), root, p.Value.Data); err != nil {
			return fmt.Errorf("engine: broadcasting initial value of %s: %w", p.Name, err)
		}
	}
	// Startup barrier: a tiny all-reduce whose chain passes through every
	// rank, so no rank — rank 0 in particular, whose broadcasts above are
	// fire-and-forget — starts training rounds before the whole group is
	// constructed. Keeps a fast rank's round abort from ever racing a slow
	// rank's initialization.
	var barrier [1]float64
	one := [1]float64{1}
	if _, err := e.group.AllReduce("init/barrier", barrier[:], nil, [][]float64{one[:]}); err != nil {
		return fmt.Errorf("engine: startup barrier: %w", err)
	}
	if got := int(barrier[0]); got != e.group.Size() {
		return fmt.Errorf("engine: startup barrier counted %d ranks, want %d", got, e.group.Size())
	}
	return nil
}

// foldParams performs one stage's gradient collective over a transport
// group: for each parameter, dst = the pre-step carried value (the
// accumulate-semantics base) plus every rank's micro-batch deltas in
// ascending global micro-batch order. carried[k] and deltas[m][k] align
// with params[k]; delta buffers are returned to the pool and their slots
// nilled, carried buffers stay with the caller (rollback state). ops is the
// stage's retained batch (newFoldOps: one reduction per parameter, one part
// slot per micro-batch), so the loopback steady state allocates nothing.
// The parameters go to the group as one batch: on a ring their waits
// overlap (transport.AllReduceBatch). Returns the bytes the group put on
// the wire.
func foldParams(group transport.Group, ops []transport.Reduction, params []*nn.Param, carried []*tensor.Matrix, deltas [][]*tensor.Matrix) (int64, error) {
	for k, p := range params {
		if carried[k] == nil {
			return 0, fmt.Errorf("missing carried gradient state for %s", p.Name)
		}
		op := &ops[k]
		op.Dst, op.Base = p.Grad.Data, carried[k].Data
		for m := range deltas {
			d := deltas[m][k]
			if d == nil {
				return 0, fmt.Errorf("missing micro-batch %d gradient contribution for %s", m, p.Name)
			}
			op.Parts[m] = d.Data
		}
	}
	bytes, err := transport.AllReduceBatch(group, ops)
	for k := range ops {
		op := &ops[k]
		op.Dst, op.Base = nil, nil
		clear(op.Parts)
	}
	if err != nil {
		return bytes, fmt.Errorf("gradient all-reduce: %w", err)
	}
	for m := range deltas {
		for k := range params {
			tensor.Put(deltas[m][k])
			deltas[m][k] = nil
		}
	}
	return bytes, nil
}

// snapshotGradDeltas moves one micro-batch's accumulated gradients out of
// the stage's parameters into pooled delta buffers (zeroing the
// accumulators for the next micro-batch) — the per-participant send buffer
// of the gradient collective. Runs on the device that owns the module
// set's stage, immediately after the micro-batch's backward finished
// accumulating.
func snapshotGradDeltas(params []*nn.Param, dst []*tensor.Matrix) {
	for k, p := range params {
		dst[k] = tensor.GetClone(p.Grad)
		p.Grad.Zero()
	}
}

// factorFold is the reusable state of one Kronecker factor's collective: part
// views over the per-micro-batch Gram partials, the 1-element row-count
// collective's buffers, and the precomputed collective names. A layer's
// names are reused across generations; the schedule's cross-generation
// dependency edges order a carried fold before the newer generation's on
// every rank, so same-name calls are issued in one global order.
type factorFold struct {
	parts         [][]float64 // len = local micro-batches per step
	rowVals       []float64   // per-micro row counts as float64
	rowParts      [][]float64 // rowParts[m] = rowVals[m : m+1]
	rowDst        [1]float64
	name, rowName string
}

// kfacFoldScratch is the reusable per-(stage, layer) state of the K-FAC
// factor collective: one factorFold per factor and the batch their four
// reductions travel in. Allocated once at EnableKFAC so the factor fold —
// part of the gated zero-alloc round path — reuses it every generation; a
// layer's folds run under layerMu[s][li].
type kfacFoldScratch struct {
	a, b factorFold
	ops  [4]transport.Reduction // A's payload and row count, then B's
}

// initKFACFold (re)builds the per-(stage, layer) factor-fold scratch for
// the current stage partition. Called from EnableKFAC.
func (e *Engine) initKFACFold() {
	perStep := e.cfg.MicroBatches * e.cfg.Replicas
	newFold := func(factor string, s, li int) factorFold {
		f := factorFold{
			parts:    make([][]float64, perStep),
			rowVals:  make([]float64, perStep),
			rowParts: make([][]float64, perStep),
			name:     fmt.Sprintf("f%s/%d/%d", factor, s, li),
			rowName:  fmt.Sprintf("r%s/%d/%d", factor, s, li),
		}
		for m := range f.rowParts {
			f.rowParts[m] = f.rowVals[m : m+1]
		}
		return f
	}
	e.kfacFold = make([][]*kfacFoldScratch, e.cfg.Stages)
	for s, st := range e.sets[0].stages {
		e.kfacFold[s] = make([]*kfacFoldScratch, len(st.layers))
		for li := range st.layers {
			e.kfacFold[s][li] = &kfacFoldScratch{a: newFold("A", s, li), b: newFold("B", s, li)}
		}
	}
}

// stage points the factor's two reductions — the payload fold into a pooled
// sum and its row count — at one generation's partials.
func (f *factorFold) stage(ops []transport.Reduction, parts []*tensor.Matrix, rows []int) (*tensor.Matrix, error) {
	for m, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("missing curvature contribution of micro-batch %d", m)
		}
		f.parts[m] = p.Data
		f.rowVals[m] = float64(rows[m])
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("no curvature contributions")
	}
	sum := tensor.Get(parts[0].Rows, parts[0].Cols)
	ops[0] = transport.Reduction{Name: f.name, Dst: sum.Data, Parts: f.parts}
	ops[1] = transport.Reduction{Name: f.rowName, Dst: f.rowDst[:], Parts: f.rowParts}
	return sum, nil
}

// foldFactors reduces a layer's two Kronecker factors over the transport
// group in ONE batch of four reductions — one round trip on a wire, where
// a fold per factor waited for the peers twice: each factor is
// scale/N · Σ_m U_m^T U_m with the per-micro-batch partials as collective
// parts — every reduction still summed alone, in the fixed ascending global
// micro-batch order — N the group-wide row count (its own 1-element
// collective: integer counts sum exactly in float64), scale 1 for A and
// scaleB for B. The returned matrices are pooled; the caller Puts them
// after SetFactors copies them out. Partial buffers stay with the caller.
func (e *Engine) foldFactors(fs *kfacFoldScratch, pool *kfacGenPool, s, li int, scaleB float64) (newA, newB *tensor.Matrix, bytes int64, err error) {
	if newA, err = fs.a.stage(fs.ops[0:2], pool.curvA[s][li], pool.rowsA[s][li]); err != nil {
		return nil, nil, 0, fmt.Errorf("factor A: %w", err)
	}
	if newB, err = fs.b.stage(fs.ops[2:4], pool.curvB[s][li], pool.rowsB[s][li]); err != nil {
		tensor.Put(newA)
		return nil, nil, 0, fmt.Errorf("factor B: %w", err)
	}
	bytes, err = transport.AllReduceBatch(e.group, fs.ops[:])
	fs.ops[0].Dst, fs.ops[2].Dst = nil, nil
	clear(fs.a.parts)
	clear(fs.b.parts)
	nA, nB := fs.a.rowDst[0], fs.b.rowDst[0]
	if err == nil && (nA == 0 || nB == 0) {
		err = fmt.Errorf("no curvature rows")
	}
	if err != nil {
		tensor.Put(newA)
		tensor.Put(newB)
		return nil, nil, bytes, err
	}
	newA.ScaleInPlace(1 / nA)
	newB.ScaleInPlace(scaleB / nB)
	return newA, newB, bytes, nil
}

// syncLoss reduces step j's per-micro-batch losses across the group so
// every rank reports the global batch's loss — and, because the collective
// completes only when every rank reaches its step commit, doubles as the
// per-step cross-rank barrier. Each local micro-batch's loss is encoded as
// one collective part [Total, Tokens, components in sorted key order], so
// the chain fold reproduces the exact ascending-global-micro addition
// sequence of a single-process run's Loss.Add loop; the reduced loss lands
// in lossParts[j][0] and the other local slots zero out (adding a zero
// Loss is exact). Multi-rank groups only — the local path's results
// already see every micro-batch.
func (st *runState) syncLoss(j int) error {
	e := st.e
	local := st.lossParts[j]
	keys := make([]string, 0, len(local[0].Components))
	for k := range local[0].Components {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 2 + len(keys)
	parts := make([][]float64, len(local))
	for m, l := range local {
		vec := make([]float64, n)
		vec[0] = l.Total
		vec[1] = float64(l.Tokens)
		for i, k := range keys {
			vec[2+i] = l.Components[k]
		}
		parts[m] = vec
	}
	dst := make([]float64, n)
	if _, err := e.group.AllReduce(fmt.Sprintf("loss/%d", j), dst, nil, parts); err != nil {
		return fmt.Errorf("loss collective of step %d: %w", j, err)
	}
	global := pipemodel.Loss{Total: dst[0], Tokens: int(dst[1])}
	if len(keys) > 0 {
		global.Components = make(map[string]float64, len(keys))
		for i, k := range keys {
			global.Components[k] = dst[2+i]
		}
	}
	local[0] = global
	for m := 1; m < len(local); m++ {
		local[m] = pipemodel.Loss{}
	}
	return nil
}
