package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
// One type carries both of the executor's sums, gradients and Kronecker
// factors: runningSum, a running prefix. The chain a reduction folds is
// +0, then every contribution in ascending order, each addition rounded on
// its own; so the rank that starts the chain can add a contribution into
// one running sum as soon as every lower one is in, and hand the transport
// that sum as the reduction's base with no parts. Rank 0 of a ring and
// every loopback engine do: a backward's delta set folds into the
// primary's gradient accumulators, a curvature op's Gram partial into its
// factor's pooled sum, and the contribution's buffer goes back to the pool
// inside the op. One that arrives early waits in its slot until the device
// that completes the prefix folds it. Ranks > 0 cannot: the chain adds
// their parts after the upstream sum arrives, so a local sum would group
// the additions differently — they keep every contribution until the
// reduction, as parts. The reduction writes the sum in place, runs once
// per epoch whichever participant reaches it first, and its error is
// sticky for that epoch (reduce).
//
// Buffer ownership: a runningSum owns its contribution slots — the
// per-micro-batch delta sets and Gram partials, pooled matrices
// (tensor.Get) — and a factor's pooled sum; its methods take them from the
// pool, Put them once folded or reduced, and scrub what an aborted round
// or a pool reset leaves. The primary's gradient accumulators are written
// only by the fold: the first contribution of a step lands on +0, so
// nothing carries gradient state from one step into the next.

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

// runningSum is one sum of the fixed-order collective: one contribution
// per global micro-batch of a step, each a set of k matrices — a (step,
// stage)'s gradient delta set, k = the stage's parameter count, or a
// (generation, stage, factor)'s Gram partial, k = 1 — added into k sums and
// reduced over the group. Contributions arrive in any order, from any
// device that produces them; on a rank that starts the chain each is added
// as soon as every lower one is in, by the device that completed the
// prefix, which also adds the waiting ones after it. The adds run outside
// mu (busy marks them), so a device arriving meanwhile only records itself
// and returns. Its state counts in one epoch — the run state's round for
// gradients, the generation pool's for factors — and re-arms on the first
// touch in a newer one, so nothing is cleared between rounds.
//
// The gradient sums are headers over the primary's accumulators, re-pointed
// every round: a fold on another device must not read the primary's Grad
// headers, which its own backwards swap delta buffers into. A factor's sum
// is pooled: taken with its first contribution on rank 0, at the reduction
// on any other rank, and handed on by the inversion.
type runningSum struct {
	mu    sync.Mutex
	epoch int64
	next  int     // contributions [0, next) are in the sum
	busy  bool    // a device is adding contributions outside mu
	done  bool    // the group's reduction ran in this epoch
	err   error   // that reduction's failure, sticky for the epoch
	ready []int64 // per contribution: the epoch it last arrived in

	parts [][]*tensor.Matrix    // [contribution][k], pooled, nil once added
	sum   []*tensor.Matrix      // [k]
	owned bool                  // sum is pooled (factors), not the primary's accumulators
	ops   []transport.Reduction // [k], retained: names and part views
	held  *byteGauge            // the ledger parts and an owned sum count in
}

// init sizes s for n contributions reduced by ops, whose names are set.
// sum are the headers the sum is written through, or nil for a pooled one.
func (s *runningSum) init(n int, ops []transport.Reduction, sum []*tensor.Matrix, held *byteGauge) {
	s.ready, s.parts, s.ops, s.held = make([]int64, n), mat2(n, len(ops)), ops, held
	s.sum, s.owned = sum, sum == nil
	if s.owned {
		s.sum = make([]*tensor.Matrix, len(ops))
	}
	for k := range ops {
		ops[k].Parts = make([][]float64, n)
	}
}

// arm re-arms the state for epoch when it still counts in an older one.
// The caller holds mu.
func (s *runningSum) arm(epoch int64) {
	if s.epoch != epoch {
		s.epoch, s.next, s.busy, s.done, s.err = epoch, 0, false, false, nil
	}
}

// take takes buffer k of contribution m, rows x cols, from the pool into
// its slot, where an abort's scrub finds it.
func (s *runningSum) take(m, k, rows, cols int) *tensor.Matrix {
	s.parts[m][k] = tensor.Get(rows, cols)
	s.held.add(bytesOf(s.parts[m][k]))
	return s.parts[m][k]
}

// arrive records contribution m as complete. On a rank that starts the
// chain (early) it is added into the sum once every lower one is in, and
// so is every waiting one after it — the first onto +0, the way the
// transport's chain starts (so a sum of −0s is +0) — their buffers going
// back to the pool. Elsewhere it waits in its slot for the reduction.
func (s *runningSum) arrive(epoch int64, m int, early bool) {
	if !early {
		return
	}
	s.mu.Lock()
	s.arm(epoch)
	s.ready[m] = epoch
	add := !s.busy && m == s.next
	s.busy = s.busy || add
	s.mu.Unlock()
	for i := m; add && i >= 0; i = s.advance() {
		for k, p := range s.parts[i] {
			if s.sum[k] == nil {
				s.sum[k] = tensor.Get(p.Rows, p.Cols)
				s.held.add(bytesOf(s.sum[k]))
			}
			if i == 0 {
				clear(s.sum[k].Data)
			}
			s.sum[k].AddInPlace(p)
		}
		s.release(s.parts[i])
	}
}

// advance records the contribution the caller just added and returns the
// next one to add, or -1 once the prefix reaches one that has not arrived.
func (s *runningSum) advance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	if s.next < len(s.ready) && s.ready[s.next] == s.epoch {
		return s.next
	}
	s.busy = false
	return -1
}

// release returns bufs to the pool and nils them.
func (s *runningSum) release(bufs []*tensor.Matrix) {
	s.held.add(-bytesOf(bufs...))
	for k, b := range bufs {
		tensor.Put(b)
		bufs[k] = nil
	}
}

// scrub returns every buffer s holds to the pool: the contributions an
// aborted round left in their slots, and an owned sum. The state re-arms
// in the next epoch.
func (s *runningSum) scrub() {
	for _, set := range s.parts {
		s.release(set)
	}
	if s.owned {
		s.release(s.sum)
	}
}

// corrupt poisons contribution m with NaN where it lives now — its slot,
// or the sum once it is in — found under mu once no device is adding: the
// fault model's silent corruption of the op that produced it.
func (s *runningSum) corrupt(epoch int64, m int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.busy {
		s.mu.Unlock()
		runtime.Gosched()
		s.mu.Lock()
	}
	s.arm(epoch)
	bufs := s.parts[m]
	if m < s.next {
		bufs = s.sum
	}
	for _, b := range bufs {
		if b != nil && len(b.Data) > 0 {
			b.Data[0] = math.NaN()
			return
		}
	}
}

// stage points the sum's reductions at what the chain still needs: the
// sum in place as Dst (an owned sum not taken yet is taken now), the sum as
// Base when the prefix holds anything, and the contributions still held as
// the parts. The caller holds mu.
func (s *runningSum) stage(rank0 bool) error {
	held := s.parts[s.next:]
	if s.next > 0 && !rank0 {
		return fmt.Errorf("contributions folded early on a rank that no longer starts the chain")
	}
	for i, set := range held {
		if slices.Contains(set, nil) {
			return fmt.Errorf("missing contribution of micro-batch %d", s.next+i)
		}
	}
	for k := range s.ops {
		op := &s.ops[k]
		if s.sum[k] == nil {
			s.sum[k] = tensor.Get(held[0][k].Rows, held[0][k].Cols)
			s.held.add(bytesOf(s.sum[k]))
		}
		op.Dst = s.sum[k].Data
		if s.next > 0 {
			op.Base = op.Dst
		}
		op.Parts = op.Parts[:len(held)]
		for m, set := range held {
			op.Parts[m] = set[k].Data
		}
	}
	return nil
}

// reduce completes sums over the group as one transport batch — batch is
// their retained reductions back to back: a stage's gradient set, or a
// stage's factor sums, which so cross a wire in one round trip, each still
// summed alone in the fixed ascending global micro-batch order. It runs at
// most once per epoch, under the sums' locks, so a latecomer — another
// participant of a stage's collective, a retried exchange — blocks until
// it finished and gets its outcome: its error is sticky for
// the epoch, and nothing is ever added twice. A single-rank group whose
// prefixes are complete has nothing to exchange: the sums are the result.
// On success the held contributions go back to the pool; a failed
// reduction leaves them for the scrub. Returns the bytes put on the wire.
func reduce(g transport.Group, epoch int64, batch []transport.Reduction, sums ...*runningSum) (int64, error) {
	complete := g.Size() == 1
	for _, s := range sums {
		s.mu.Lock()
		s.arm(epoch)
		complete = complete && s.next == len(s.parts)
	}
	var bytes int64
	err := sums[0].err
	if !sums[0].done && !complete {
		for _, s := range sums {
			if err = s.stage(g.Rank() == 0); err != nil {
				break
			}
		}
		if err == nil {
			bytes, err = g.AllReduceBatch(batch)
		}
		for i := range batch {
			op := &batch[i]
			op.Dst, op.Base = nil, nil
			op.Parts = op.Parts[:cap(op.Parts)]
			clear(op.Parts)
		}
	}
	for _, s := range sums {
		if err == nil && !s.done {
			for _, set := range s.parts[s.next:] {
				s.release(set)
			}
			s.next = len(s.parts)
		}
		s.done, s.err = true, err
		s.mu.Unlock()
	}
	return bytes, err
}

// heldBytes is the folds' byte ledger: the pooled bytes they hold — the
// gradient delta sets, and the K-FAC Gram partials with the factor sums
// they fold into — each class with its high-water mark since the round
// began (Engine.FoldBytes).
type heldBytes struct{ deltas, partials byteGauge }

// byteGauge is one class of heldBytes.
type byteGauge struct{ cur, peak atomic.Int64 }

// add moves the gauge by n bytes, raising the high-water mark past it. A
// nil gauge (a sum built outside an engine) counts nothing.
func (g *byteGauge) add(n int64) {
	if g == nil {
		return
	}
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

// swapGrads exchanges each parameter's gradient storage with its delta
// buffer's: a backward accumulates into its micro-batch's delta set, swapped
// in before and back after, so the parameter's header holds the primary's
// accumulator (nil for any other module set) again when the op completes.
func swapGrads(params []*nn.Param, deltas []*tensor.Matrix) {
	for k, p := range params {
		p.Grad.Data, deltas[k].Data = deltas[k].Data, p.Grad.Data
	}
}

// syncCurvature completes stage s's factor sums over the group — all 2L of
// them, the stage's whole ops[s], in one reduce — so on a ring a stage pays
// the round trip once per generation, not once per layer. The schedule
// puts it after every curvature op of the stage and generation, and every
// inversion of the stage after it (schedule.Config.CrossProcess); a stage's
// other owners find it done. On a single-rank group it exchanges nothing.
func (e *Engine) syncCurvature(pool *kfacGenPool, s int) (int64, error) {
	return reduce(e.group, pool.epoch, pool.ops[s], pool.stageSums[s]...)
}

// reduced returns the outcome of the reduction that made s the group's sum
// in epoch: the stage's sync-curvature (its error, sticky for the epoch),
// or — on a single-rank group, where a stage may have no such op — none, a
// complete prefix being the sum.
func (s *runningSum) reduced(epoch int64, single bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm(epoch)
	switch {
	case s.done:
		return s.err
	case !single:
		return fmt.Errorf("factor sums folded before their stage's exchange")
	case s.next < len(s.parts):
		return fmt.Errorf("missing contribution of micro-batch %d", s.next)
	}
	return nil
}

// foldFactors hands over a layer's two Kronecker factors: the group-wide
// sums — each scale/N · Σ_m U_m^T U_m, scale 1 for A and scaleB for B,
// reduced over the group by then (reduced). N is the group-wide row count:
// every statistic has one row per token of its micro-batch, so N is the
// generation's batch in tokens, Seqs × SeqLen, an integer exact in
// float64. The partials are lower triangles whose upper ones are
// unspecified (they are summed, and cross the wire, as they are); each sum
// is mirrored once before it is scaled, which equals folding mirrored
// partials bit for bit: an upper element was the same sum of the same
// values in the same order. Under a fault plan a sum holding NaN/Inf fails
// the fold before it is scaled — corrupted partials must not poison the
// preconditioner's EMA, which SetFactors folds into long-lived state no
// retry could repair — and stays in the pool, so a retry checks it again
// and, still poisoned, degrades. The returned matrices stay the sums' own:
// the caller scrubs the two sums once SetFactors copied them out.
func (e *Engine) foldFactors(pool *kfacGenPool, s, li int, scaleB float64) (newA, newB *tensor.Matrix, err error) {
	a, b := &pool.sums[s][2*li], &pool.sums[s][2*li+1]
	single := e.group.Size() == 1
	if err = a.reduced(pool.epoch, single); err == nil {
		err = b.reduced(pool.epoch, single)
	}
	if err != nil {
		return nil, nil, err
	}
	newA, newB = a.sum[0], b.sum[0]
	if newA == nil || newB == nil {
		return nil, nil, fmt.Errorf("factor sums already handed on")
	}
	// Mirroring is idempotent, so a retry may mirror again.
	newA.MirrorLower()
	newB.MirrorLower()
	if e.inj != nil && (newA.HasNaN() || newB.HasNaN()) {
		return nil, nil, fmt.Errorf("NaN/Inf in folded curvature factors of layer %d stage %d", li, s)
	}
	n := float64(pool.totals.Seqs * e.sets[0].model.SeqLen())
	newA.ScaleInPlace(1 / n)
	newB.ScaleInPlace(scaleB / n)
	return newA, newB, nil
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
// engine: the component keys in sorted order, one part vector
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
