package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
)

// runOpts is one workload run: one process, one seed, traced or not.
type runOpts struct {
	w       *workload
	seed    uint64
	seconds float64
	traced  bool
	quick   bool // ~1% budgets: the smoke test's mode
}

// budget is the run's per-arm step budget.
func (o runOpts) budget() int { return o.w.budget(o.w.steps, o.seconds, o.share()) }

// lossAt is the vanilla step whose held-out loss is the convergence target,
// and lossWindow the steps the pipefisher arm has to come down to it: twice
// as many, or the whole budget.
func (o runOpts) lossAt() int     { return o.w.budget(o.w.lossAt, o.seconds, o.share()) }
func (o runOpts) lossWindow() int { return min(2*o.lossAt(), o.budget()) }

// lrTotal is the LR-decay horizon every arm of the run shares.
func (o runOpts) lrTotal() int { return warmSteps + o.w.budget(o.w.lrSteps, o.seconds, o.share()) }

// share of the nominal budget this run trains for.
func (o runOpts) share() float64 {
	s := 1.0
	if o.traced {
		s = 1.0 / 3
	}
	if o.quick {
		s *= 0.01
	}
	return s
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one workload run reports. The driver's last-line
// JSON is a projection of it (see contractLine); -out files keep it whole.
type runResult struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	Traced        bool                   `json:"traced"`
	StepsPerArm   int                    `json:"steps_per_arm"`
	Samples       map[string]int         `json:"samples"`
	Metrics       map[string]metricValue `json:"metrics"`
	Attempted     int                    `json:"steps_attempted"`
	Failed        int                    `json:"steps_failed"`
	TargetReached bool                   `json:"target_reached"`
	// The held-out loss curves the convergence metrics were read from
	// (untraced runs): loss after EvalSteps[i] steps, per arm.
	EvalSteps      []int     `json:"eval_steps,omitempty"`
	EvalVanilla    []float64 `json:"eval_vanilla,omitempty"`
	EvalPipefisher []float64 `json:"eval_pipefisher,omitempty"`
	Violations     []string  `json:"violations,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	d, ok := declared[name]
	if !ok {
		panic("benchmark: undeclared metric " + name) // a typo in this package, not an input
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

func (r *runResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	r.Failed++
}

// runState is a set-up benchmark: twin arms over one corpus, warmed up and
// past the correctness gate.
type runState struct {
	corpus  *data.Corpus
	vanilla *arm
	pf      *arm
	// plain is the untraced pipefisher twin of a traced run: the reference
	// trace.overhead_share is measured against, and — same seeds — a check
	// that the decorators leave the arithmetic alone.
	plain *arm
	warm  []float64 // pf arm's warm-up losses, for replayOnLoopback
	eval  *evaluator
}

// arms lists the arms that train, in a fixed order.
func (s *runState) arms() []*arm {
	if s.plain != nil {
		return []*arm{s.vanilla, s.pf, s.plain}
	}
	return []*arm{s.vanilla, s.pf}
}

func (s *runState) close() {
	for _, a := range s.arms() {
		a.close()
	}
}

// evaluator measures an arm's masked-LM loss on a held-out set, from
// outside: the arm's parameter values are copied into a model of the
// evaluator's own, so no layer cache, shape or K-FAC capture of the training
// model is touched. The set is the same for every arm, run and seed — the
// yardstick does not move with the thing measured — so two curves on it
// differ only by what the parameters learned, not by which batches they
// happened to see. That is what makes the crossing of two nearly parallel
// curves repeatable: a 20-step mean of batch-of-8 training losses wanders
// +-0.1 nats, tens of steps of progress at the end of a run. The
// next-sentence loss is left out for the same reason: on this corpus it
// hovers around ln 2 and jumps by 0.2-0.3 nats from one evaluation to the
// next, ten times the masked-LM progress of a whole block.
type evaluator struct {
	model   *bert.Model
	batches []*data.Batch // training-size batches: the working set stays a step's
}

// evalSeed draws the held-out set; no -seed derives it (seeds multiplies by
// 1000003, so its streams are never this one).
const evalSeed = 7

func newEvaluator(w *workload) (*evaluator, error) {
	m, err := bert.New(w.cfg, evalSeed)
	if err != nil {
		return nil, err
	}
	c, err := data.NewCorpus(w.cfg.VocabSize, 1.0, evalSeed)
	if err != nil {
		return nil, err
	}
	return &evaluator{model: m, batches: w.batches(c, evalTokens/(batchSize*w.cfg.SeqLen))}, nil
}

// loss is the arm's masked-LM loss per masked token of the held-out set,
// read between rounds, when nothing writes rank 0's parameters.
func (e *evaluator) loss(a *arm) (float64, error) {
	src, dst := a.ranks[0].model.Params(), e.model.Params()
	for i, p := range src {
		copy(dst[i].Value.Data, p.Value.Data)
	}
	var sum float64
	var masked int
	for _, b := range e.batches {
		r, err := e.model.Evaluate(b)
		if err != nil {
			return 0, err
		}
		sum += r.Loss.MLM * float64(r.Loss.MaskedCount)
		masked += r.Loss.MaskedCount
	}
	return sum / float64(masked), nil
}

// evaluate books one point of every arm's held-out loss curve.
func (s *runState) evaluate(res *runResult) error {
	for _, a := range s.arms() {
		l, err := s.eval.loss(a)
		if err != nil {
			return fmt.Errorf("%s held-out evaluation: %w", a.name, err)
		}
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.violate("%s: non-finite held-out loss %v after %d steps", a.name, l, len(a.losses))
		}
		a.evalAt = append(a.evalAt, len(a.losses))
		a.evalLoss = append(a.evalLoss, l)
	}
	return nil
}

func (w *workload) batches(c *data.Corpus, n int) []*data.Batch {
	out := make([]*data.Batch, n)
	for i := range out {
		out[i] = c.MakeBatch(batchSize, data.DefaultBatchConfig(w.cfg.SeqLen))
	}
	return out
}

// setUp builds both arms (model, engine, EnableKFAC, ring dial), runs the
// correctness gate, and warms every arm up. This is what setup_s times.
func setUp(o runOpts, log *spanLog, res *runResult) (*runState, error) {
	w := o.w
	_, corpusSeed := seeds(o.seed)
	corpus, err := data.NewCorpus(w.cfg.VocabSize, 1.0, corpusSeed)
	if err != nil {
		return nil, err
	}
	st := &runState{corpus: corpus}
	var vctx, pctx *spanCtx
	if o.traced {
		vctx, pctx = newSpanCtx(log, "vanilla"), newSpanCtx(log, "pipefisher")
	}
	// mk builds one arm; after the first failure it builds nothing more.
	var buildErr error
	mk := func(sp armSpec) *arm {
		if buildErr != nil {
			return nil
		}
		sp.lrTotal = o.lrTotal()
		var a *arm
		a, buildErr = buildArm(w, o.seed, sp)
		return a
	}
	// The gate's twins: the same seeds on a single loopback pipeline holding
	// all of the workload's micro-batches. The vanilla twin runs gpipe:
	// matching it bit for bit is the repo's cross-schedule identity (and,
	// on the ring workload, its cross-transport identity). The pipefisher
	// twin can only change schedule when K = 1: in a longer round every
	// step preconditions with the inversions the packer fitted into that
	// step's bubbles, and the bubbles are the schedule's, so there a gpipe
	// replay legitimately diverges and the twin keeps the workload's method
	// (replay determinism, still across transports).
	pfTwinMethod := "gpipe"
	if w.k > 1 {
		pfTwinMethod = w.method
	}
	twinMicro := w.micro * w.ranks
	st.vanilla = mk(armSpec{name: "vanilla", ctx: vctx})
	st.pf = mk(armSpec{name: "pipefisher", kfac: true, ctx: pctx})
	if o.traced {
		st.plain = mk(armSpec{name: "pipefisher/untraced", kfac: true})
	}
	vTwin := mk(armSpec{name: "vanilla/twin", method: "gpipe", ranks: 1, micro: twinMicro})
	pTwin := mk(armSpec{name: "pipefisher/twin", kfac: true, method: pfTwinMethod, ranks: 1, micro: twinMicro})
	defer vTwin.close()
	defer pTwin.close()
	if buildErr != nil {
		st.close()
		return nil, buildErr
	}
	warmRounds := (warmSteps + w.k - 1) / w.k
	gateRounds := (gateSteps + w.k - 1) / w.k
	for r := 0; r < warmRounds; r++ {
		bs := w.batches(corpus, w.k)
		got := make(map[*arm][]*engine.StepResult)
		run := st.arms()
		if r < gateRounds {
			run = append(run, vTwin, pTwin)
		}
		for _, a := range run {
			sr, _, err := a.round(bs)
			if err != nil {
				st.close()
				return nil, fmt.Errorf("%s warm-up round %d: %w", a.name, r, err)
			}
			got[a] = sr
			for j, s := range sr {
				res.Attempted++
				if bad := stepFault(s); bad != "" {
					res.violate("%s warm-up step %d: %s", a.name, r*w.k+j, bad)
				}
			}
		}
		for _, s := range got[st.pf] {
			st.warm = append(st.warm, s.Loss.Total)
		}
		if r < gateRounds {
			sameLosses(res, "vanilla vs its gpipe twin", r*w.k, got[st.vanilla], got[vTwin])
			sameLosses(res, "pipefisher vs its "+pfTwinMethod+" twin", r*w.k, got[st.pf], got[pTwin])
		}
		if st.plain != nil {
			sameLosses(res, "traced vs untraced pipefisher", r*w.k, got[st.pf], got[st.plain])
		}
	}
	return st, nil
}

// stepFault names what is wrong with a step result, or "".
func stepFault(s *engine.StepResult) string {
	switch {
	case math.IsNaN(s.Loss.Total) || math.IsInf(s.Loss.Total, 0):
		return fmt.Sprintf("non-finite loss %v", s.Loss.Total)
	case s.Degraded:
		return "degraded refresh: " + s.DegradedReason
	}
	return ""
}

// sameLosses records a violation for every step whose two losses differ in
// any bit.
func sameLosses(res *runResult, what string, firstStep int, a, b []*engine.StepResult) {
	for j := range a {
		x, y := a[j].Loss.Total, b[j].Loss.Total
		if math.Float64bits(x) != math.Float64bits(y) {
			res.violate("%s: step %d loss %.17g != %.17g", what, firstStep+j, x, y)
		}
	}
}

// block runs one arm for one block of steps (whole rounds) and books the
// timings and losses; col, the traced run's collector, sees every round from
// outside the timed call.
func (a *arm) block(res *runResult, bs []*data.Batch, col *collector) error {
	k := a.w.k
	var blockMS float64
	for r := 0; r+k <= len(bs); r += k {
		if col != nil {
			col.before(a)
		}
		sr, d, err := a.round(bs[r : r+k])
		res.Attempted += k
		if err != nil {
			res.Failed += k
			return fmt.Errorf("%s step %d: %w", a.name, len(a.losses), err)
		}
		ms := float64(d) / float64(time.Millisecond)
		blockMS += ms
		a.stepMS = append(a.stepMS, ms/float64(k))
		for _, s := range sr {
			if bad := stepFault(s); bad != "" {
				res.violate("%s step %d: %s", a.name, len(a.losses), bad)
			}
			a.losses = append(a.losses, s.Loss.Total)
		}
		if col != nil {
			col.after(a, sr, d)
		}
	}
	a.blockMS = append(a.blockMS, blockMS)
	return nil
}

// run is one workload run, start to finish.
func run(o runOpts) (*runResult, error) {
	w := o.w
	res := &runResult{
		Workload: w.name, Seed: o.seed, Traced: o.traced,
		Samples: map[string]int{}, Metrics: map[string]metricValue{},
	}
	log := newSpanLog()
	var setupS []float64
	var st *runState
	times := setupTimes
	if o.traced || o.quick {
		times = 1 // setup_s is an untraced metric
	}
	// Every set-up builds, gates and warms fresh arms from the same seeds;
	// the last one is measured, and only its gate is counted.
	var gate *runResult
	for i := 0; i < times; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Collect the previous set-up's arms before timing the next one (and
		// before measuring): peak RSS is then one live set of arms, not
		// however many the collector had not got to yet.
		runtime.GC()
		gate = &runResult{}
		t0 := time.Now()
		var err error
		if st, err = setUp(o, log, gate); err != nil {
			return res, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()
	runtime.GC()
	res.Attempted, res.Failed, res.Violations = gate.Attempted, gate.Failed, gate.Violations

	budget := o.budget()
	res.StepsPerArm = budget
	var col *collector
	if o.traced {
		// Set-up's spans and wire bytes are not part of the measured steps.
		log.reset()
		for _, a := range st.arms() {
			if r := a.ranks[0].ring; r != nil {
				r.bytes.Store(0)
				r.failed.Store(0)
			}
		}
		col = newCollector(o, st, log)
	}
	orders := blockOrders(len(st.arms()))
	arms := st.arms()
	block := w.blockSteps()
	// The convergence metrics are untraced ones: only that run pays for the
	// held-out curve — a point after every block of the loss window and one
	// at the end of the budget, between blocks, outside every timed call.
	if !o.traced {
		var err error
		if st.eval, err = newEvaluator(w); err != nil {
			return res, err
		}
		if err := st.evaluate(res); err != nil {
			return res, err
		}
	}
	for done, pair := 0, 0; done < budget; done, pair = done+block, pair+1 {
		var span int
		if o.traced {
			span = log.begin("data.make_batch", "", -1)
		}
		bs := w.batches(st.corpus, block)
		if o.traced {
			log.end(span)
		}
		// Cycle through every order of the arms, so no arm always runs
		// first, and none always runs on the caches, the garbage and the
		// clock state one particular other arm left behind.
		for _, i := range orders[pair%len(orders)] {
			a := arms[i]
			if err := a.block(res, bs, col); err != nil {
				res.Violations = append(res.Violations, err.Error())
				return res, err
			}
		}
		if col != nil {
			col.blockDone()
		}
		if n := done + block; !o.traced && (n <= o.lossWindow() || n >= budget) {
			if err := st.evaluate(res); err != nil {
				return res, err
			}
		}
	}

	if st.plain != nil {
		for i := range st.pf.losses {
			if math.Float64bits(st.pf.losses[i]) != math.Float64bits(st.plain.losses[i]) {
				res.violate("traced vs untraced pipefisher: step %d loss differs", i)
				break
			}
		}
	}
	if o.traced {
		col.finish(res)
	} else {
		endToEnd(res, o, st, median(setupS))
		res.Samples["setup_s"] = len(setupS)
	}
	if w.ranks > 1 {
		if err := replayOnLoopback(o, st, res); err != nil {
			res.Violations = append(res.Violations, err.Error())
			return res, err
		}
	}
	return res, nil
}

// replayOnLoopback is the ring workload's transport identity: after the
// timed steps, the pipefisher arm's whole run — warm-up and budget — is
// replayed from the same seeds on one loopback rank holding all the
// micro-batches, and every loss must match bit for bit. With the shared LR
// horizon that twin is tiny_1f1b's pipefisher arm, so tiny_ring2's losses
// equal tiny_1f1b's over the whole prefix the two budgets share, checked
// inside the one run and counted in steps_failed.
func replayOnLoopback(o runOpts, st *runState, res *runResult) error {
	w := o.w
	_, corpusSeed := seeds(o.seed)
	corpus, err := data.NewCorpus(w.cfg.VocabSize, 1.0, corpusSeed)
	if err != nil {
		return err
	}
	twin, err := buildArm(w, o.seed, armSpec{name: "pipefisher/loopback", kfac: true,
		ranks: 1, micro: w.micro * w.ranks, lrTotal: o.lrTotal()})
	if err != nil {
		return err
	}
	defer twin.close()
	want := append(append([]float64(nil), st.warm...), st.pf.losses...)
	for done := 0; done < len(want); done += w.k {
		sr, _, err := twin.round(w.batches(corpus, w.k))
		res.Attempted += w.k
		if err != nil {
			res.Failed += w.k
			return fmt.Errorf("%s step %d: %w", twin.name, done, err)
		}
		for j, s := range sr {
			if math.Float64bits(s.Loss.Total) != math.Float64bits(want[done+j]) {
				res.violate("ring vs loopback pipefisher: step %d loss %.17g != %.17g", done+j, want[done+j], s.Loss.Total)
				return nil // every later step differs too
			}
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *runResult, o runOpts, st *runState, setupS float64) {
	v, p := st.vanilla, st.pf
	res.set("setup_s", setupS)
	// Throughput of the arm's fastest block: the other load on a shared
	// host only ever adds time, so the fastest of the interleaved blocks is
	// the steadiest estimate of what the code itself takes; a block holds
	// every kind of step (two refresh cycles where K = 1, a round otherwise).
	seqsPerBlock := float64(batchSize * v.w.blockSteps())
	res.set("vanilla_seqs_per_s", seqsPerBlock/(minOf(v.blockMS)/1000))
	res.set("pipefisher_seqs_per_s", seqsPerBlock/(minOf(p.blockMS)/1000))
	res.Samples["vanilla_seqs_per_s"] = len(v.blockMS)
	res.Samples["pipefisher_seqs_per_s"] = len(p.blockMS)
	overhead := pairRatioMedian(p.blockMS, v.blockMS)
	res.set("kfac_overhead", overhead)
	res.Samples["kfac_overhead"] = len(p.blockMS)
	// Both curves are read on the same held-out set, so the target the
	// vanilla arm sets and the curve that has to come down to it carry the
	// same sampling error, and it cancels in the crossing. Every block of the
	// loss window has a point, from step 0 on; the point after the window, if
	// any, is the end of the budget, which is final_loss's.
	at, window := o.lossAt()/v.w.blockSteps(), o.lossWindow()/v.w.blockSteps()
	n, reached := stepsToLoss(p.evalAt[:window+1], p.evalLoss[:window+1], v.evalLoss[at])
	res.TargetReached = reached
	res.set("steps_to_loss", n)
	// Steps to the target against the vanilla arm's, each priced at its arm's
	// block time: what the wall clocks of the two arms would read at their
	// crossings, without the noise of the handful of blocks (four, on the
	// tiny workloads, and the run's first) the crossings happen to fall in.
	res.set("time_to_loss_ratio", n/float64(o.lossAt())*overhead)
	res.set("final_loss", p.evalLoss[len(p.evalLoss)-1])
	res.Samples["steps_to_loss"] = window + 1
	res.EvalSteps, res.EvalVanilla, res.EvalPipefisher = p.evalAt, v.evalLoss, p.evalLoss
	rss := peakRSSMB()
	if rss == 0 {
		res.violate("peak_rss_mb: VmHWM unreadable from /proc/self/status")
	}
	res.set("peak_rss_mb", rss)
}

// blockOrders lists every permutation of n arms, in an order that flips the
// first two arms from one block to the next.
func blockOrders(n int) [][]int {
	if n == 2 {
		return [][]int{{0, 1}, {1, 0}}
	}
	return [][]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}, {2, 1, 0}}
}

// peakRSSMB reads this process's VmHWM; 0 when /proc is unreadable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
