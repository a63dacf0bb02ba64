package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// newRankBERTBatches is newRankBERT for multi-step runs: the corpus is
// seeded identically on every rank, so rank-local batch generation yields
// the same global batch sequence everywhere — exactly what a separate
// process would materialize.
func newRankBERTBatches(t *testing.T, batchSize, n int) (*bert.Model, []*data.Batch) {
	t.Helper()
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]*data.Batch, n)
	for i := range batches {
		batches[i] = c.MakeBatch(batchSize, data.DefaultBatchConfig(m.Config.SeqLen))
	}
	return m, batches
}

// engState is the transplantable training state of an engine — what run B
// of the shrink identity test seeds from run A's restored checkpoint.
type engState struct {
	params         [][]float64
	opt            []float64
	step, round    int
	gen            int
	refreshPending bool
	kfacSnaps      []*kfac.Snapshot
}

func captureEngState(e *Engine) *engState {
	s := &engState{step: e.stepIndex, round: e.roundIndex, gen: e.kfacGen, refreshPending: e.refreshPending}
	for _, p := range e.sets[0].params {
		s.params = append(s.params, append([]float64(nil), p.Value.Data...))
	}
	if e.optState != nil {
		s.opt = make([]float64, e.optState.StateLen())
		e.optState.SaveState(s.opt)
	}
	for _, pre := range e.kfacPre {
		snap := &kfac.Snapshot{}
		snap.Save(pre)
		s.kfacSnaps = append(s.kfacSnaps, snap)
	}
	return s
}

func implantEngState(e *Engine, s *engState) error {
	for i, p := range e.sets[0].params {
		copy(p.Value.Data, s.params[i])
		p.Grad.Zero()
	}
	if e.optState != nil && len(s.opt) > 0 {
		e.optState.LoadState(s.opt)
	}
	for i, pre := range e.kfacPre {
		if err := s.kfacSnaps[i].Restore(pre); err != nil {
			return err
		}
	}
	e.stepIndex, e.roundIndex, e.kfacGen, e.refreshPending = s.step, s.round, s.gen, s.refreshPending
	return nil
}

// elasticResult is one rank's journey through an elastic test run. losses
// is keyed by step index: commit is not atomic across ranks, so a survivor
// may have aborted a step a peer committed — per-step keying keeps the
// records comparable regardless.
type elasticResult struct {
	losses map[int]float64
	params []*tensor.Matrix
	ckpt   *engState
	killed bool
	err    error
}

func newElasticResult() elasticResult { return elasticResult{losses: map[int]float64{}} }

// The tentpole identity property: a 3-rank ring hit by a deterministic
// rank-2 kill mid-training regroups — survivors reform a 2-rank ring, swap
// the engine onto it, and rewind to the round checkpoint — and from that
// point every per-step loss is bit-identical to a fresh 2-rank run seeded
// from the same checkpoint. Shrinking the group is exactly "restore this
// checkpoint at the surviving width". Runs once without K-FAC and once with
// (the checkpoint then also carries factor EMAs and inverses).
func TestRingEngineShrinkBitIdentity(t *testing.T) {
	for _, useKFAC := range []bool{false, true} {
		name := "plain"
		if useKFAC {
			name = "kfac"
		}
		t.Run(name, func(t *testing.T) {
			const nSteps = 4
			opts := transport.RingOptions{HeartbeatInterval: 20 * time.Millisecond}
			rings, addrs, cleanup, err := transport.NewLocalRingOpts(3, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			plan := mustParsePlan(t, "kill:rank=2,step=1")

			build := func(g transport.Group, withPlan bool) (*Engine, *bert.Model, []*data.Batch, error) {
				// Batch size 12 splits evenly at both widths: 6 global
				// micro-batches of 2 at W=3, 4 of 3 at W=2.
				m, batches := newRankBERTBatches(t, 12, nSteps)
				cfg := Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Transport: g, Checkpoint: true}
				if withPlan {
					cfg.FaultPlan = plan
				}
				eng, err := NewWithConfig(m, cfg)
				if err != nil {
					return nil, nil, nil, err
				}
				if useKFAC {
					if err := eng.EnableKFAC(kfac.Options{Damping: 1e-2, StatDecay: 0.9}, 1); err != nil {
						return nil, nil, nil, err
					}
				}
				opt := optim.NewSGD(m.Params(), 0.9, 0)
				eng.SetOptimizer(func(step int) error { opt.Step(0.05); return nil })
				eng.AttachOptimizerState(opt)
				nn.ZeroGrads(m.Params())
				return eng, m, batches, nil
			}

			// Run A: 3 ranks, rank 2 killed at step 1, survivors regroup.
			var outA [3]elasticResult
			var wg sync.WaitGroup
			// Ranks that finish cleanly park here before closing their ring:
			// a rank can owe forwarding writes to a peer even after that peer
			// completed the same collective, so closing immediately on
			// completion can break a slower peer's final step. (Failed ranks
			// skip the barrier — severing the ring is then the point.)
			var finish sync.WaitGroup
			finish.Add(len(rings))
			for rank := range rings {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					ring := rings[rank]
					eng, m, batches, err := build(ring, true)
					if err != nil {
						finish.Done()
						outA[rank] = elasticResult{err: err}
						return
					}
					eng.SetKillHook(func() { ring.Close() })
					var group transport.Group = ring
					defer func() { group.Close() }()
					defer func() {
						finish.Done()
						if outA[rank].err == nil {
							finish.Wait()
						}
					}()
					res := newElasticResult()
					for i := 0; i < nSteps; {
						sr, err := eng.TrainStep(batches[i])
						if err == nil {
							res.losses[i] = sr.Loss.Total
							i++
							continue
						}
						if rank == 2 {
							res.killed = true
							outA[rank] = res
							return
						}
						rf, ok := transport.AsRankFailure(err)
						if !ok {
							outA[rank] = elasticResult{err: fmt.Errorf("step %d: want RankFailure, got %v", i, err)}
							return
						}
						if rf.Rank != 2 {
							outA[rank] = elasticResult{err: fmt.Errorf("failure attributed to rank %d, want 2 (%v)", rf.Rank, rf)}
							return
						}
						// Close the old ring only once the survivor ring has
						// formed: every survivor inside Reform has already
						// observed the failure, so no one is still mid-write
						// into a connection this close would break.
						g2, err := transport.Reform(addrs, []int{0, 1}, rank, 1, opts)
						if err != nil {
							outA[rank] = elasticResult{err: fmt.Errorf("reform: %w", err)}
							return
						}
						group.Close()
						group = g2
						if err := eng.Reconnect(g2, false); err != nil {
							outA[rank] = elasticResult{err: err}
							return
						}
						step, err := eng.RegroupRestore()
						if err != nil {
							outA[rank] = elasticResult{err: err}
							return
						}
						i = step
						res.ckpt = captureEngState(eng)
					}
					res.params = cloneParams(m.Params())
					outA[rank] = res
				}(rank)
			}
			wg.Wait()
			for rank, r := range outA {
				if r.err != nil {
					t.Errorf("run A rank %d: %v", rank, r.err)
				}
			}
			if !outA[2].killed {
				t.Fatal("rank 2 was never killed")
			}
			// Rank 0's inbound data for step 0 fully landed before the kill
			// (rank 2 only dies after committing step 0), so rank 0 commits
			// every step; rank 1 may have aborted step 0 mid-write and
			// adopted rank 0's checkpoint during reconciliation instead.
			if len(outA[0].losses) != nSteps {
				t.Fatalf("survivor committed %d steps, want %d", len(outA[0].losses), nSteps)
			}
			for i, l := range outA[1].losses {
				if l != outA[0].losses[i] {
					t.Fatalf("survivors disagree on loss of step %d: %.17g vs %.17g", i, outA[0].losses[i], l)
				}
			}
			if outA[0].ckpt == nil || outA[0].ckpt.step != 1 {
				t.Fatalf("regroup restored to step %v, want 1", outA[0].ckpt)
			}

			// Run B: a fresh 2-rank group seeded from run A's restored
			// checkpoint replays steps 1..3.
			rings2, _, cleanup2, err := transport.NewLocalRingOpts(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup2()
			var outB [2]elasticResult
			// Same close discipline as run A: clean finishers park until both
			// ranks are done before closing, so a fast rank's teardown cannot
			// break the slower rank's final in-flight frames.
			var finishB sync.WaitGroup
			finishB.Add(2)
			for rank := range rings2 {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					defer rings2[rank].Close()
					defer func() {
						finishB.Done()
						if outB[rank].err == nil {
							finishB.Wait()
						}
					}()
					eng, m, batches, err := build(rings2[rank], false)
					if err != nil {
						outB[rank] = elasticResult{err: err}
						return
					}
					if err := implantEngState(eng, outA[0].ckpt); err != nil {
						outB[rank] = elasticResult{err: err}
						return
					}
					res := newElasticResult()
					for i := eng.StepsDone(); i < nSteps; i++ {
						sr, err := eng.TrainStep(batches[i])
						if err != nil {
							outB[rank] = elasticResult{err: fmt.Errorf("step %d: %w", i, err)}
							return
						}
						res.losses[i] = sr.Loss.Total
					}
					res.params = cloneParams(m.Params())
					outB[rank] = res
				}(rank)
			}
			wg.Wait()
			for rank, r := range outB {
				if r.err != nil {
					t.Fatalf("run B rank %d: %v", rank, r.err)
				}
			}
			// Post-shrink steps 1..3 of run A vs the same steps of run B.
			for i := 1; i < nSteps; i++ {
				if got, want := outA[0].losses[i], outB[0].losses[i]; got != want {
					t.Fatalf("%s: post-shrink loss of step %d is %.17g, fresh-2-rank run has %.17g", name, i, got, want)
				}
			}
			requireRankGradsBitEqual(t, outA[0].params, outB[0].params, "post-shrink params vs fresh 2-rank run")
			requireRankGradsBitEqual(t, outA[1].params, outB[1].params, "post-shrink params vs fresh 2-rank run (rank 1)")
		})
	}
}

// cloneParams deep-copies parameter values (cloneGrads's value-side twin).
func cloneParams(params []*nn.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

// Supervised rejoin: after the shrink, a restarted rank 2 and the two
// survivors dial the full-width ring under the next membership view; the
// rejoiner (a fresh process: new model, new engine, empty optimizer)
// reconnects with resync=true and receives rank 0's parameters, optimizer
// state and step counters over the ordinary broadcast. Training continues
// at restored width with every rank in lockstep, and the first post-rejoin
// timeline carries the membership view and marker span.
func TestRingEngineRejoinRestoresWidth(t *testing.T) {
	const nSteps = 6
	opts := transport.RingOptions{HeartbeatInterval: 20 * time.Millisecond}
	rings, addrs, cleanup, err := transport.NewLocalRingOpts(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	plan := mustParsePlan(t, "kill:rank=2,step=1")

	build := func(g transport.Group, withPlan bool) (*Engine, *bert.Model, []*data.Batch, error) {
		m, batches := newRankBERTBatches(t, 12, nSteps)
		cfg := Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Transport: g, Checkpoint: true}
		if withPlan {
			cfg.FaultPlan = plan
		}
		eng, err := NewWithConfig(m, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		opt := optim.NewSGD(m.Params(), 0.9, 0)
		eng.SetOptimizer(func(step int) error { opt.Step(0.05); return nil })
		eng.AttachOptimizerState(opt)
		nn.ZeroGrads(m.Params())
		return eng, m, batches, nil
	}
	rejoinOpts := opts
	rejoinOpts.View = 2
	// The supervisor's round-boundary gate: the restarted rank may only dial
	// the full-width ring once both survivors reached the agreed boundary
	// (otherwise its silent half-dialed connection confuses their regroup).
	var boundary sync.WaitGroup
	boundary.Add(2)

	var out [3]elasticResult
	var views [3]int
	var wg sync.WaitGroup
	// Clean finishers park before closing the final full-width ring: a rank
	// can owe forwarding writes to a peer even after that peer completed the
	// collective, so an early close breaks a slower peer's last step.
	var finish sync.WaitGroup
	finish.Add(3)
	for rank := range rings {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var eng *Engine
			var m *bert.Model
			var batches []*data.Batch
			var group transport.Group
			var err error // shadows the test-level err: rank goroutines must not share one
			defer func() {
				if group != nil {
					group.Close()
				}
			}()
			defer func() {
				finish.Done()
				if out[rank].err == nil {
					finish.Wait()
				}
			}()
			res := newElasticResult()
			if rank == 2 {
				// Original incarnation: train until killed.
				engA, _, batchesA, err := build(rings[2], true)
				if err != nil {
					out[rank] = elasticResult{err: err}
					return
				}
				engA.SetKillHook(func() { rings[2].Close() })
				for i := 0; ; i++ {
					sr, err := engA.TrainStep(batchesA[i])
					if err != nil {
						break // killed
					}
					res.losses[i] = sr.Loss.Total
				}
				// Restarted incarnation: fresh model and engine built on
				// Loopback (no construction-time collectives), then dialed
				// into the full-width view-2 ring and resynced.
				eng, m, batches, err = build(nil, false)
				if err != nil {
					out[rank] = elasticResult{err: err}
					return
				}
				boundary.Wait()
			} else {
				eng, m, batches, err = build(rings[rank], true)
				if err != nil {
					out[rank] = elasticResult{err: err}
					return
				}
				group = rings[rank]
				// Survive the kill: regroup at W=2, replay, and run through
				// step 2 before the agreed rejoin boundary.
				for i := 0; i < 3; {
					sr, err := eng.TrainStep(batches[i])
					if err == nil {
						res.losses[i] = sr.Loss.Total
						i++
						continue
					}
					rf, ok := transport.AsRankFailure(err)
					if !ok || rf.Rank != 2 {
						out[rank] = elasticResult{err: fmt.Errorf("want rank-2 RankFailure, got %v", err)}
						return
					}
					g2, err := transport.Reform(addrs, []int{0, 1}, rank, 1, opts)
					if err != nil {
						out[rank] = elasticResult{err: err}
						return
					}
					group.Close()
					group = g2
					if err := eng.Reconnect(g2, false); err != nil {
						out[rank] = elasticResult{err: err}
						return
					}
					if i, err = eng.RegroupRestore(); err != nil {
						out[rank] = elasticResult{err: err}
						return
					}
				}
				group.Close()
				boundary.Done()
			}
			// Rejoin boundary: everyone dials the full-width view-2 ring.
			g3, err := transport.DialRing(addrs, rank, rejoinOpts)
			if err != nil {
				out[rank] = elasticResult{err: fmt.Errorf("rejoin dial: %w", err)}
				return
			}
			group = g3
			if err := eng.Reconnect(g3, true); err != nil {
				out[rank] = elasticResult{err: fmt.Errorf("rejoin resync: %w", err)}
				return
			}
			if got := eng.StepsDone(); got != 3 {
				out[rank] = elasticResult{err: fmt.Errorf("rejoined at step %d, want 3", got)}
				return
			}
			for i := eng.StepsDone(); i < nSteps; i++ {
				sr, err := eng.TrainStep(batches[i])
				if err != nil {
					out[rank] = elasticResult{err: fmt.Errorf("post-rejoin step %d: %w", i, err)}
					return
				}
				res.losses[i] = sr.Loss.Total
			}
			views[rank] = eng.MemberView()
			if rank == 0 {
				tl := eng.LastTimeline()
				if tl == nil || tl.Events[0][0].Membership != 2 {
					out[rank] = elasticResult{err: fmt.Errorf("post-rejoin timeline not stamped with view 2")}
					return
				}
			}
			res.params = cloneParams(m.Params())
			out[rank] = res
		}(rank)
	}
	wg.Wait()
	for rank, r := range out {
		if r.err != nil {
			t.Errorf("rank %d: %v", rank, r.err)
		}
	}
	for rank := range views {
		if views[rank] != 2 {
			t.Fatalf("rank %d ended at membership view %d, want 2", rank, views[rank])
		}
	}
	// Rank 0 committed every step (its inbound data always lands; see the
	// shrink test); rank 1 may have adopted rank 0's checkpoint for a step
	// it aborted, so only its recorded steps are compared.
	if len(out[0].losses) != nSteps {
		t.Fatalf("rank 0 committed %d steps, want %d", len(out[0].losses), nSteps)
	}
	for i, l := range out[1].losses {
		if l != out[0].losses[i] {
			t.Fatalf("survivors disagree on loss of step %d", i)
		}
	}
	// The rejoiner re-ran steps 3..5 in lockstep with the survivors.
	for i := 3; i < nSteps; i++ {
		if out[2].losses[i] != out[0].losses[i] {
			t.Fatalf("rejoiner loss of step %d is %.17g, survivors have %.17g", i, out[2].losses[i], out[0].losses[i])
		}
	}
	requireRankGradsBitEqual(t, out[2].params, out[0].params, "rejoined rank params vs rank 0")
}

// The first executed round after a membership change carries a
// zero-duration Membership marker and stamps every event with the new view;
// subsequent rounds keep the stamp but not the marker.
func TestTimelineMembershipStamp(t *testing.T) {
	m, batches := newRankBERTBatches(t, 4, 2)
	eng, err := NewWithConfig(m, Config{Stages: 2, MicroBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(m.Params())
	if _, err := eng.TrainStep(batches[0]); err != nil {
		t.Fatal(err)
	}
	for _, ev := range eng.LastTimeline().Events[0] {
		if ev.Membership != 0 || ev.Op.Kind == pipeline.Membership {
			t.Fatal("pre-change timeline must carry view 0 and no marker")
		}
	}
	if err := eng.Reconnect(transport.Loopback{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainStep(batches[1]); err != nil {
		t.Fatal(err)
	}
	tl := eng.LastTimeline()
	if tl.Events[0][0].Op.Kind != pipeline.Membership {
		t.Fatalf("first post-change event is %v, want a Membership marker", tl.Events[0][0].Op.Kind)
	}
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if ev.Membership != 1 {
				t.Fatalf("post-change event %v stamped with view %d, want 1", ev.Op.Kind, ev.Membership)
			}
		}
	}
	if _, err := eng.TrainStep(batches[0]); err != nil {
		t.Fatal(err)
	}
	if eng.LastTimeline().Events[0][0].Op.Kind == pipeline.Membership {
		t.Fatal("marker must appear only on the first round after the change")
	}
}

// Kill faults are rank-projected: a plan targeting another rank costs this
// rank nothing (nil injector), and a plan targeting this rank fires the
// registered kill hook exactly once per matched op.
func TestKillHookAndRankProjection(t *testing.T) {
	m, batches := newRankBERTBatches(t, 4, 1)
	eng, err := NewWithConfig(m, Config{
		Stages: 2, MicroBatches: 2,
		FaultPlan: mustParsePlan(t, "kill:rank=1,step=0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(m.Params())
	if eng.inj != nil {
		t.Fatal("rank-1-targeted plan must leave rank 0's injector nil")
	}
	if _, err := eng.TrainStep(batches[0]); err != nil {
		t.Fatalf("rank-1-targeted kill fired on rank 0: %v", err)
	}

	m2, batches2 := newRankBERTBatches(t, 4, 1)
	eng2, err := NewWithConfig(m2, Config{
		Stages: 2, MicroBatches: 2,
		FaultPlan: mustParsePlan(t, "kill:rank=0,step=0,count=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(m2.Params())
	var fired atomic.Int32
	eng2.SetKillHook(func() { fired.Add(1) })
	_, err = eng2.TrainStep(batches2[0])
	if err == nil {
		t.Fatal("kill fault must abort the round when the hook leaves the process alive")
	}
	if !contains(err.Error(), "killed") {
		t.Fatalf("kill abort not attributed: %v", err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("kill hook fired %d times, want 1", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
