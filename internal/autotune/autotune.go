// Package autotune closes the loop between the execution engine and the
// schedule packer: it refits the packing cost model from the engine's
// *executed* timelines, re-runs the schedule search over a candidate space
// (schedule family x round length K x overlap x inversion sharding), and hot-swaps the engine to the predicted-best executable at
// a round boundary. The predictions and the execution share one schedule
// form (internal/schedule's Executable), so a ranking is a statement about
// exactly the op lists the engine would run — and because the engine's
// micro-batch reduction order is fixed, a swap never changes the math,
// only the time it takes.
package autotune

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// Config bounds the tuner's behavior.
type Config struct {
	// WarmupRounds are ignored before any observation is recorded (cold
	// caches and scheduler ramp-up; default 2).
	WarmupRounds int
	// Interval is the number of rounds between tuner decisions (default 4).
	// Between decisions the tuner only observes.
	Interval int
	// MinRelGain is the predicted relative step-time improvement a swap
	// must clear (default 0.02): below it the tuner holds — re-packing
	// discards in-flight refresh state, so marginal predictions don't pay.
	MinRelGain float64
	// Methods/MaxRefreshSteps bound the candidate space (see
	// schedule.Space; the topology dimensions come from the engine).
	Methods         []string
	MaxRefreshSteps int
}

// Decision is one ranking of the candidate space.
type Decision struct {
	Round           int
	Current, Choice schedule.Candidate
	CurrentStep     hardware.Microseconds
	ChoiceStep      hardware.Microseconds
	Swapped         bool
	Reason          string
	ModelError      float64
	RefreshScrubbed bool // the swap discarded in-flight refresh state
}

// Tuner drives the closed loop for one engine. It is not safe for
// concurrent use; call Observe from the loop that owns the engine,
// after each TrainRound.
type Tuner struct {
	eng     *engine.Engine
	cfg     Config
	fit     *hardware.Fit
	records []trace.TuneRecord
}

// New creates a tuner for an engine. The engine should have K-FAC enabled
// (the candidate space reshapes refresh packing; without a refresh there
// is little to tune, though forward/backward refits still apply).
func New(eng *engine.Engine, cfg Config) (*Tuner, error) {
	if eng == nil {
		return nil, fmt.Errorf("autotune: nil engine")
	}
	if cfg.WarmupRounds == 0 {
		cfg.WarmupRounds = 2
	}
	if cfg.WarmupRounds < 0 {
		cfg.WarmupRounds = 0
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 4
	}
	if cfg.MinRelGain == 0 {
		cfg.MinRelGain = 0.02
	}
	if cfg.MinRelGain < 0 {
		cfg.MinRelGain = 0
	}
	return &Tuner{eng: eng, cfg: cfg, fit: hardware.NewFit(cfg.WarmupRounds)}, nil
}

// Observe ingests the round the engine just executed and, on decision
// rounds, ranks the candidate space and possibly hot-swaps the engine.
// Call it after every successful TrainRound (skip error rounds — an
// aborted round's timeline is partial). The returned Decision is nil on
// observation-only rounds. A Reconfigure failure is returned but leaves
// the engine running its current schedule.
func (t *Tuner) Observe() (*Decision, error) {
	t.fit.BeginRound()
	t.ingestTimeline()
	// Straggler headroom: a slow peer delays every collective rendezvous in
	// a way this rank's own op durations never show (the wait hides inside
	// whichever op anchors the fold). Heartbeat-carried round times expose
	// the ratio; pricing the synchronization classes up by it makes the
	// ranking prefer schedules that overlap communication when the group is
	// imbalanced. The scale clears as soon as the straggler catches up.
	slow := t.eng.RankSlowness()
	t.fit.SetScale(int(pipeline.SyncGrad), slow)
	t.fit.SetScale(int(pipeline.SyncCurvature), slow)
	rec := trace.TuneRecord{Round: t.fit.Rounds(), ModelError: -1, Current: t.eng.Shape().String()}
	if me, ok := t.ModelError(); ok {
		rec.ModelError = me
	}
	if !t.fit.Warm() || t.fit.Rounds()%t.cfg.Interval != 0 {
		t.records = append(t.records, rec)
		return nil, nil
	}
	d, err := t.decide(&rec)
	t.records = append(t.records, rec)
	return d, err
}

// ingestTimeline feeds the engine's last executed timeline into the fit,
// excluding what measurement must not trust: retried executions (their
// duration includes backoff), degraded placeholders, and zero-duration
// side effects. The optimizer update is observed once per step, as the
// step's commit (engine.CommitDurations), not as every device's arrival.
func (t *Tuner) ingestTimeline() {
	tl := t.eng.LastTimeline()
	if tl == nil {
		return
	}
	for d := 0; d < tl.Devices; d++ {
		for _, ev := range tl.Events[d] {
			if ev.Retries > 0 || ev.Op.Kind == pipeline.Degraded || ev.Op.Kind == pipeline.OptStep {
				continue
			}
			t.fit.Observe(int(ev.Op.Kind), ev.Duration())
		}
	}
	for _, c := range engine.CommitDurations(tl) {
		t.fit.Observe(int(pipeline.OptStep), c)
	}
}

// FittedCosts returns the engine's modeled cost shape with every class the
// fit has observed replaced by its measured median: unobserved classes
// keep their modeled values, so a cold fit changes nothing.
func (t *Tuner) FittedCosts() pipeline.StageCosts {
	return t.eng.ModeledCosts().Refit(func(k pipeline.WorkKind) (hardware.Microseconds, bool) {
		return t.fit.Estimate(int(k))
	})
}

// ModelError reports the shape-normalized relative error between the
// engine's current packing cost model and the fitted estimates: every
// class is expressed as a ratio to its side's Forward cost before
// comparing, so the metric measures the *shape* mismatch that drives bad
// packing decisions, not the units (modeled costs are abstract; measured
// ones are wall-clock). It shrinks toward zero once the tuner installs
// fitted costs — the convergence artifact WriteTuneCSV plots.
func (t *Tuner) ModelError() (float64, bool) {
	modeled := t.eng.ModeledCosts()
	mFwd := float64(modeled.Forward)
	eFwd, ok := t.fit.Estimate(int(pipeline.Forward))
	if !ok || mFwd <= 0 {
		return 0, false
	}
	var sum float64
	var n int
	for _, k := range pipeline.Kinds() {
		cost := modeled.Cost(k)
		if k == pipeline.Forward || cost <= 0 {
			continue
		}
		m, ok := t.fit.Estimate(int(k))
		if !ok {
			continue
		}
		want := float64(m) / float64(eFwd)
		got := float64(cost) / mFwd
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		sum += diff / want
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// decide ranks the candidate space under the fitted costs and swaps the
// engine when the predicted gain clears the threshold.
func (t *Tuner) decide(rec *trace.TuneRecord) (*Decision, error) {
	fitted := t.FittedCosts()
	base := schedule.Config{
		Stages:            t.eng.Stages(),
		MicroBatches:      t.eng.MicroBatches(),
		DataParallelWidth: t.eng.Replicas(),
		Costs:             fitted,
	}
	space := schedule.Space{
		Methods:           t.cfg.Methods,
		MaxRefreshSteps:   t.cfg.MaxRefreshSteps,
		Stages:            t.eng.Stages(),
		MicroBatches:      t.eng.MicroBatches(),
		DataParallelWidth: t.eng.Replicas(),
	}
	cur := t.eng.Shape()
	d := &Decision{Round: t.fit.Rounds(), Current: cur, Choice: cur}
	if me, ok := t.ModelError(); ok {
		d.ModelError = me
	}
	preds := schedule.RankCandidates(base, schedule.Enumerate(space))
	if len(preds) == 0 {
		d.Reason = "no candidate schedule built"
		t.fillRecord(rec, d)
		return d, nil
	}
	best := preds[0]
	curPred, err := schedule.Predict(base, cur)
	if err != nil {
		// The current configuration no longer builds under the fitted
		// costs (should not happen — it is running); treat any candidate
		// as an improvement.
		curPred = schedule.Prediction{Candidate: cur, StepTime: best.StepTime * 1000}
	}
	d.CurrentStep = curPred.StepTime
	d.Choice = best.Candidate
	d.ChoiceStep = best.StepTime
	if best.Candidate == cur {
		d.Reason = "keep: current configuration ranks best"
		t.fillRecord(rec, d)
		return d, nil
	}
	gain := float64(curPred.StepTime-best.StepTime) / float64(curPred.StepTime)
	if gain < t.cfg.MinRelGain {
		d.Choice = cur
		d.ChoiceStep = curPred.StepTime
		d.Reason = fmt.Sprintf("hold: best %s gains %.1f%%, below threshold %.1f%%",
			best.Candidate, gain*100, t.cfg.MinRelGain*100)
		t.fillRecord(rec, d)
		return d, nil
	}
	if err := t.eng.Reconfigure(best.Candidate, &fitted); err != nil {
		d.Choice = cur
		d.ChoiceStep = curPred.StepTime
		d.Reason = fmt.Sprintf("swap to %s failed: %v", best.Candidate, err)
		t.fillRecord(rec, d)
		return d, fmt.Errorf("autotune: %w", err)
	}
	d.Swapped = true
	d.RefreshScrubbed = true
	d.Reason = fmt.Sprintf("swap: %.1f%% predicted gain", gain*100)
	t.fillRecord(rec, d)
	return d, nil
}

func (t *Tuner) fillRecord(rec *trace.TuneRecord, d *Decision) {
	rec.Decision = true
	rec.Current = d.Current.String()
	rec.Choice = d.Choice.String()
	rec.CurrentStep = d.CurrentStep
	rec.ChoiceStep = d.ChoiceStep
	rec.Swapped = d.Swapped
	rec.Reason = d.Reason
}

// Records returns the per-round tuning records (model-error trajectory
// plus decisions) for trace.WriteTuneCSV / trace.RenderTuneLog.
func (t *Tuner) Records() []trace.TuneRecord { return t.records }

// Rounds reports how many rounds the tuner has observed.
func (t *Tuner) Rounds() int { return t.fit.Rounds() }
