package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/pipemodel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the engine's glue onto the transport package: every
// collective of the executor — the per-stage gradient all-reduce, the
// K-FAC factor fold, the per-step loss reduction of multi-process groups —
// routes through the engine's transport.Group. With the default Loopback
// group the fold is bit for bit the historical in-process collective (each
// micro-batch delta onto +0 in ascending order), allocation-free on the
// steady-state path; with a Ring group the same calls put the partials on a
// wire, and the chain fold order keeps the results bit-identical.
//
// Determinism contract: every reduction runs at micro-batch granularity in
// a single fixed order — ascending global micro-batch index, where rank r
// of a W_g-rank group running R local replicas owns global micro-batches
// [r*R*M, (r+1)*R*M) of each step. The transport's fold contract realizes
// exactly that order across ranks, so gradients, K-FAC factors and losses
// are bit-identical for any (group size, replica count, schedule, worker
// count) splitting of the same global batch.
//
// The fold is a running prefix (prefixFold). The chain a reduction folds
// is +0, then every contribution in ascending order, each addition rounded
// on its own; so the rank that starts the chain can add a contribution
// into one running sum as soon as every lower one is in, and hand the
// transport that sum as the reduction's base with no parts. Rank 0 of a
// ring and every loopback engine do: a backward's delta set folds into the
// primary's gradient accumulators, a curvature op's Gram partial into its
// factor's pooled sum, and the contribution's buffer goes back to the pool
// inside the op. One that arrives early waits in its slot until the device
// that completes the prefix folds it. Ranks > 0 cannot: the chain adds
// their parts after the upstream sum arrives, so a local sum would group
// the additions differently — they keep every contribution until the
// reduction, as parts.
//
// Buffer ownership: the per-micro-batch delta buffers and Gram partials
// are pooled matrices (tensor.Get) owned by the run state and the
// generation pool; the fold that consumes one Puts it and nils its slot.
// The primary's gradient accumulators are written only by the fold: the
// first contribution of a step lands on +0, so nothing carries gradient
// state from one step into the next.

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

// prefixFold is the running-prefix state of one sum of n contributions —
// a (step, stage)'s gradient deltas, or a (generation, stage, layer,
// factor)'s Gram partials. Contributions arrive in any order, from any
// device that produces them; each is added as soon as every lower one is
// in, by the device that completed the prefix, which also drains the
// waiting successors. The adds run outside mu (busy marks them), so a
// device arriving meanwhile only records itself and returns. Its state
// counts in one epoch — the run state's round for gradients, the generation
// pool's for factors — and re-arms on the first touch in a newer one, so
// nothing is cleared between rounds.
type prefixFold struct {
	mu    sync.Mutex
	epoch int64
	next  int     // contributions [0, next) are in the sum
	busy  bool    // a device is adding contributions outside mu
	done  bool    // the group's reduction completed: the sum is final
	err   error   // that reduction's failure, surfaced to every participant
	ready []int64 // per contribution: the epoch it last arrived in
}

func newPrefixFold(n int) prefixFold { return prefixFold{ready: make([]int64, n)} }

// arm re-arms the state for epoch when it still counts in an older one.
// The caller holds mu.
func (f *prefixFold) arm(epoch int64) {
	if f.epoch != epoch {
		f.epoch, f.next, f.busy, f.done, f.err = epoch, 0, false, false, nil
	}
}

// arrive records contribution m as complete and returns it when it
// completes the prefix: the caller then adds it, and every contribution
// advance returns after it. Otherwise it returns -1 and m waits in its slot.
func (f *prefixFold) arrive(epoch int64, m int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arm(epoch)
	f.ready[m] = epoch
	if f.busy || m != f.next {
		return -1
	}
	f.busy = true
	return m
}

// advance records the contribution the caller just added and returns the
// next one to add, or -1 once the prefix reaches one that has not arrived.
func (f *prefixFold) advance() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	if f.next < len(f.ready) && f.ready[f.next] == f.epoch {
		return f.next
	}
	f.busy = false
	return -1
}

// state returns, in epoch, how many contributions the sum holds and
// whether the group's reduction of it completed. Between a sum's last
// arrival and its reduction nothing adds, so the reduction reads it
// without waiting.
func (f *prefixFold) state(epoch int64) (next int, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arm(epoch)
	return f.next, f.done
}

// settle locks f once no device is adding outside mu and reports whether
// contribution m is in the sum; the caller unlocks. The fault model uses it
// to find where an op's contribution lives.
func (f *prefixFold) settle(epoch int64, m int) bool {
	f.mu.Lock()
	for f.busy {
		f.mu.Unlock()
		runtime.Gosched()
		f.mu.Lock()
	}
	f.arm(epoch)
	return m < f.next
}

// foldPart adds one contribution into a running sum the way the
// transport's chain does: the first onto +0 (so a sum of −0s is +0), every
// later one onto the sum so far.
func foldPart(sum, part *tensor.Matrix, first bool) {
	if first {
		clear(sum.Data)
	}
	sum.AddInPlace(part)
}

// heldBytes is the folds' byte ledger: the pooled bytes they hold — the
// gradient delta sets, and the K-FAC Gram partials with the factor sums
// they fold into — each class with its high-water mark since the round
// began (Engine.FoldBytes).
type heldBytes struct{ deltas, partials byteGauge }

// byteGauge is one class of heldBytes.
type byteGauge struct{ cur, peak atomic.Int64 }

// add moves the gauge by n bytes, raising the high-water mark past it.
func (g *byteGauge) add(n int64) {
	c := g.cur.Add(n)
	for p := g.peak.Load(); c > p && !g.peak.CompareAndSwap(p, c); p = g.peak.Load() {
	}
}

// rearm starts a new high-water mark at what is held now.
func (g *byteGauge) rearm() { g.peak.Store(g.cur.Load()) }

// foldsEarly reports whether this rank starts the transport chain, and so
// folds its contributions into running sums as they arrive.
func (e *Engine) foldsEarly() bool { return e.group.Rank() == 0 }

// bytesOf is the pooled size of a set of buffers.
func bytesOf(ms ...*tensor.Matrix) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(8 * cap(m.Data))
		}
	}
	return n
}

// foldGrads folds contribution gm of step j's stage-s gradient into the
// primary's accumulators once every lower one is in, and every waiting one
// after it, returning their delta buffers to the pool.
func (st *runState) foldGrads(j, s, gm int) {
	f := &st.gradFold[j][s]
	for m := f.arrive(st.round, gm); m >= 0; m = f.advance() {
		set := st.deltas[j][s][m]
		for k, d := range set {
			foldPart(st.gradSum[s][k], d, m == 0)
		}
		st.e.held.deltas.add(-bytesOf(set...))
		for k, d := range set {
			tensor.Put(d)
			set[k] = nil
		}
	}
}

// foldParams completes one stage's gradient collective over a transport
// group. held are the step's last len(held) micro-batch delta sets
// (held[m][k] aligned with params[k]); the contributions before them are
// already in the primary's accumulators (foldGrads), which are then the
// reduction's base — only the rank that starts the chain folds early. The
// result, every rank's contributions in ascending global micro-batch
// order, is written over the accumulators. A single-rank group holding
// nothing has nothing left to do: the accumulators are the sum. The held
// buffers are returned to the pool and their slots nilled. ops is the
// stage's retained batch (newFoldOps: one reduction per parameter, one part
// slot per micro-batch), so the steady state allocates nothing; the
// parameters go to the group as one batch, so on a ring their waits
// overlap (transport.AllReduceBatch). Returns the bytes the group put on
// the wire.
func foldParams(group transport.Group, ops []transport.Reduction, params []*nn.Param, held [][]*tensor.Matrix) (int64, error) {
	if len(held) == 0 && group.Size() == 1 {
		return 0, nil
	}
	for m, set := range held {
		for k, d := range set {
			if d == nil {
				return 0, fmt.Errorf("missing micro-batch %d gradient contribution for %s", len(ops[k].Parts)-len(held)+m, params[k].Name)
			}
		}
	}
	for k, p := range params {
		op := &ops[k]
		if len(held) < len(op.Parts) {
			op.Base = p.Grad.Data
		}
		op.Dst = p.Grad.Data
		op.Parts = op.Parts[:len(held)]
		for m, set := range held {
			op.Parts[m] = set[k].Data
		}
	}
	bytes, err := transport.AllReduceBatch(group, ops)
	for k := range ops {
		op := &ops[k]
		op.Dst, op.Base = nil, nil
		op.Parts = op.Parts[:cap(op.Parts)]
		clear(op.Parts)
	}
	if err != nil {
		return bytes, fmt.Errorf("gradient all-reduce: %w", err)
	}
	for _, set := range held {
		for k, d := range set {
			tensor.Put(d)
			set[k] = nil
		}
	}
	return bytes, nil
}

// attachDeltas makes one micro-batch's delta buffers — the fold's
// per-participant send buffers — the gradient accumulators of the stage's
// parameters for the backward about to run. Each is taken from the pool,
// zeroed (the delta is the contribution onto +0) and recorded in dst before
// anything can fail, so an abort's rollback returns it; then it is swapped
// in, its header holding the parameter's own slice (the primary's
// accumulator, nil for any other module set) until swapGrads hands that
// back, before the op completes. Runs on the device that owns the module
// set's stage, whose slots back-propagate one at a time. Returns the bytes
// it took from the pool.
func attachDeltas(params []*nn.Param, dst []*tensor.Matrix) int64 {
	for k, p := range params {
		dst[k] = tensor.Get(p.Grad.Rows, p.Grad.Cols)
		dst[k].Zero()
	}
	n := bytesOf(dst...)
	swapGrads(params, dst)
	return n
}

// swapGrads exchanges each parameter's gradient storage with its delta
// buffer's: attachDeltas' swap in, and the swap back.
func swapGrads(params []*nn.Param, deltas []*tensor.Matrix) {
	for k, p := range params {
		p.Grad.Data, deltas[k].Data = deltas[k].Data, p.Grad.Data
	}
}

// factorFold is the reusable state of one Kronecker factor's collective:
// part views over the Gram partials still held and the precomputed
// collective name. A layer's names are reused across generations; the
// schedule's cross-generation dependency edges order a carried fold before
// the newer generation's on every rank, so same-name calls are issued in
// one global order.
type factorFold struct {
	parts [][]float64 // cap = local micro-batches per step
	name  string
}

// kfacFoldScratch is the reusable per-(stage, layer) state of the K-FAC
// factor collective: one factorFold per factor and the batch their two
// reductions travel in. Allocated once at EnableKFAC so the factor fold —
// part of the gated zero-alloc round path — reuses it every generation; a
// layer's folds run under layerMu[s][li].
type kfacFoldScratch struct {
	a, b factorFold
	ops  [2]transport.Reduction // A's payload, then B's
}

// initKFACFold (re)builds the per-(stage, layer) factor-fold scratch for
// the current stage partition. Called from EnableKFAC.
func (e *Engine) initKFACFold() {
	perStep := e.cfg.MicroBatches * e.cfg.Replicas
	newFold := func(factor string, s, li int) factorFold {
		return factorFold{
			parts: make([][]float64, perStep),
			name:  fmt.Sprintf("f%s/%d/%d", factor, s, li),
		}
	}
	e.kfacFold = make([][]*kfacFoldScratch, e.cfg.Stages)
	for s, st := range e.sets[0].stages {
		e.kfacFold[s] = make([]*kfacFoldScratch, len(st.layers))
		for li := range st.layers {
			e.kfacFold[s][li] = &kfacFoldScratch{a: newFold("A", s, li), b: newFold("B", s, li)}
		}
	}
}

// stage points the factor's reduction at a generation's running sum and
// the partials it does not hold yet, parts[first:]: the sum is the base
// (nil when nothing folded early), the held partials the parts, and a
// fresh pooled buffer the destination — so a failed exchange leaves the
// sum as it was, for a retry.
func (f *factorFold) stage(op *transport.Reduction, sum *factorSum, parts []*tensor.Matrix, first int) (*tensor.Matrix, error) {
	held := parts[first:]
	for i, p := range held {
		if p == nil {
			return nil, fmt.Errorf("missing curvature contribution of micro-batch %d", first+i)
		}
		f.parts[i] = p.Data
	}
	shape := sum.acc
	if shape == nil {
		if len(held) == 0 {
			return nil, fmt.Errorf("no curvature contributions")
		}
		shape = held[0]
	}
	dst := tensor.Get(shape.Rows, shape.Cols)
	*op = transport.Reduction{Name: f.name, Dst: dst.Data, Parts: f.parts[:len(held)]}
	if sum.acc != nil {
		op.Base = sum.acc.Data
	}
	return dst, nil
}

// exchangeFactors completes a layer's two factor sums across the group, in
// ONE batch of two reductions — one round trip on a wire, where a fold per
// factor waited for the peers twice — each still summed alone, in the
// fixed ascending global micro-batch order. On a single-rank group whose
// prefix folds are complete there is nothing to exchange: the running sums
// are the factors. Otherwise each exchanged sum replaces the running sum
// and the partials it consumed go back to the pool. An exchanged sum is
// marked done, so a retried inversion does not exchange it again.
func (e *Engine) exchangeFactors(fs *kfacFoldScratch, pool *kfacGenPool, s, li int) (int64, error) {
	sums := [2]*factorSum{&pool.sumA[s][li], &pool.sumB[s][li]}
	parts := [2][]*tensor.Matrix{pool.curvA[s][li], pool.curvB[s][li]}
	var first [2]int
	for i, sum := range sums {
		if first[i], _ = sum.state(pool.epoch); first[i] > 0 && !e.foldsEarly() {
			return 0, fmt.Errorf("curvature folded early on a rank that no longer starts the chain")
		}
	}
	if !e.multiRank && first[0] == len(parts[0]) && first[1] == len(parts[1]) {
		sums[0].done, sums[1].done = true, true
		return 0, nil
	}
	var dst [2]*tensor.Matrix
	var bytes int64
	var err error
	folds := [2]*factorFold{&fs.a, &fs.b}
	for i := range sums {
		if dst[i], err = folds[i].stage(&fs.ops[i], sums[i], parts[i], first[i]); err != nil {
			err = fmt.Errorf("factor %c: %w", "AB"[i], err)
			break
		}
	}
	if err == nil {
		bytes, err = transport.AllReduceBatch(e.group, fs.ops[:])
	}
	for i := range fs.ops {
		fs.ops[i] = transport.Reduction{}
		clear(folds[i].parts)
	}
	if err != nil {
		tensor.Put(dst[0])
		tensor.Put(dst[1])
		return bytes, err
	}
	pool.count(bytesOf(dst[:]...))
	for i, sum := range sums {
		held := parts[i][first[i]:]
		pool.count(-bytesOf(sum.acc) - bytesOf(held...))
		tensor.Put(sum.acc)
		for m, p := range held {
			tensor.Put(p)
			held[m] = nil
		}
		sum.acc, sum.next, sum.done = dst[i], len(parts[i]), true
	}
	return bytes, nil
}

// foldFactors hands over a layer's two Kronecker factors: the group-wide
// sums (exchangeFactors) — each scale/N · Σ_m U_m^T U_m, scale 1 for A and
// scaleB for B. N is the group-wide row count: every statistic has one row
// per token of its micro-batch, so N is the generation's batch in tokens,
// Seqs × SeqLen, an integer exact in float64. The partials are lower
// triangles whose upper ones are unspecified (they are summed, and cross
// the wire, as they are); each sum is mirrored once before it is scaled,
// which equals folding mirrored partials bit for bit: an upper element was
// the same sum of the same values in the same order. Under a fault plan a
// sum holding NaN/Inf fails the fold before it is scaled — corrupted
// partials must not poison the preconditioner's EMA, which SetFactors
// folds into long-lived state no retry could repair — and stays in the
// pool, so a retry checks it again and, still poisoned, degrades. The
// returned matrices leave the pool; the caller Puts them after SetFactors
// copies them out.
func (e *Engine) foldFactors(fs *kfacFoldScratch, pool *kfacGenPool, s, li int, scaleB float64) (newA, newB *tensor.Matrix, bytes int64, err error) {
	sumA, sumB := &pool.sumA[s][li], &pool.sumB[s][li]
	if _, done := sumA.state(pool.epoch); !done {
		if bytes, err = e.exchangeFactors(fs, pool, s, li); err != nil {
			return nil, nil, bytes, err
		}
	}
	newA, newB = sumA.acc, sumB.acc
	if newA == nil || newB == nil {
		return nil, nil, bytes, fmt.Errorf("factor sums already handed on")
	}
	// Mirroring is idempotent, so a retry may mirror again.
	newA.MirrorLower()
	newB.MirrorLower()
	if e.inj != nil && (newA.HasNaN() || newB.HasNaN()) {
		return nil, nil, bytes, fmt.Errorf("NaN/Inf in folded curvature factors of layer %d stage %d", li, s)
	}
	n := float64(pool.totals.Seqs * e.sets[0].model.SeqLen())
	newA.ScaleInPlace(1 / n)
	newB.ScaleInPlace(scaleB / n)
	sumA.acc, sumB.acc = nil, nil
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
	ls := &e.lossSync
	ls.prepare(local[0].Components, len(local), j)
	n := len(ls.dst)
	for m, l := range local {
		vec := ls.parts[m]
		vec[0] = l.Total
		vec[1] = float64(l.Tokens)
		for i, k := range ls.keys {
			vec[2+i] = l.Components[k]
		}
	}
	if _, err := e.group.AllReduce(ls.names[j], ls.dst, nil, ls.parts); err != nil {
		return fmt.Errorf("loss collective of step %d: %w", j, err)
	}
	global := pipemodel.Loss{Total: ls.dst[0], Tokens: int(ls.dst[1])}
	if n > 2 {
		// The map is step j's own until the next round's syncLoss of step
		// j: results copies it into the StepResult (Loss.Add).
		global.Components = ls.comps[j]
		for i, k := range ls.keys {
			global.Components[k] = ls.dst[2+i]
		}
	}
	local[0] = global
	for m := 1; m < len(local); m++ {
		local[m] = pipemodel.Loss{}
	}
	return nil
}

// lossSync is the per-step loss collective's retained scratch, kept on the
// engine like foldOps: the component keys in sorted order, one part vector
// per local micro-batch, the reduced vector, and per step of the round its
// collective name and reduced Components map. Steps commit one at a time,
// so one scratch serves the whole round.
type lossSync struct {
	keys  []string
	parts [][]float64
	dst   []float64
	names []string
	comps []map[string]float64
}

// prepare sizes the scratch for a step j whose losses carry comps' keys
// over micro local micro-batches. It allocates only when the key set,
// the micro-batch count or the round length grew past what it holds.
func (ls *lossSync) prepare(comps map[string]float64, micro, j int) {
	same := len(comps) == len(ls.keys)
	for _, k := range ls.keys {
		if _, ok := comps[k]; !ok {
			same = false
			break
		}
	}
	n := 2 + len(comps)
	if !same || len(ls.parts) != micro {
		ls.keys = ls.keys[:0]
		for k := range comps {
			ls.keys = append(ls.keys, k)
		}
		sort.Strings(ls.keys)
		ls.dst = make([]float64, n)
		ls.parts = make([][]float64, micro)
		for m := range ls.parts {
			ls.parts[m] = make([]float64, n)
		}
		clear(ls.comps)
	}
	for len(ls.names) <= j {
		ls.names = append(ls.names, fmt.Sprintf("loss/%d", len(ls.names)))
		ls.comps = append(ls.comps, nil)
	}
	if ls.comps[j] == nil && n > 2 {
		ls.comps[j] = make(map[string]float64, n-2)
	}
}
