package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// countingGroup wraps one rank's group and records every factor reduction
// it carries (names "fA/…", "fB/…"): one entry per call, the names it
// reduced, in order. A factor all-reduce outside a batch counts as a batch
// of one.
type countingGroup struct {
	transport.Group
	mu      sync.Mutex
	batches [][]string
}

func (g *countingGroup) note(rs []transport.Reduction) {
	if len(rs) == 0 || !strings.HasPrefix(rs[0].Name, "f") {
		return
	}
	names := make([]string, len(rs))
	for i := range rs {
		names[i] = rs[i].Name
	}
	g.mu.Lock()
	g.batches = append(g.batches, names)
	g.mu.Unlock()
}

func (g *countingGroup) AllReduceBatch(rs []transport.Reduction) (int64, error) {
	g.note(rs)
	return g.Group.AllReduceBatch(rs)
}

func (g *countingGroup) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	g.note([]transport.Reduction{{Name: name}})
	return g.Group.AllReduce(name, dst, base, parts)
}

// take returns the batches recorded since the last take.
func (g *countingGroup) take() [][]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.batches
	g.batches = nil
	return out
}

// TestRingFactorExchangePerStage: on a two-rank ring a stage's Kronecker
// factor sums cross the group once per (stage, generation), as one
// AllReduceBatch of all 2L of its factor reductions (in factor order) at
// the stage's sync-curvature, and never as one batch per layer: K-FAC
// refresh steps under gpipe, 1F1B and Chimera, and overlapped K = 2 rounds
// in which a carried generation folds, on both ranks.
func TestRingFactorExchangePerStage(t *testing.T) {
	opts := kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}
	for _, tc := range []struct {
		name   string
		cfg    Config
		rounds int
	}{
		{"gpipe", Config{Method: "gpipe", Stages: 2, MicroBatches: 2}, 2},
		{"1f1b", Config{Method: "1f1b", Stages: 2, MicroBatches: 2}, 2},
		{"chimera", Config{Method: "chimera", Stages: 2, MicroBatches: 2}, 2},
		// At one sequence per micro-batch the K = 2 window carries part of
		// the refresh: the second round folds the first one's generation.
		{"1f1b-overlap-K2", Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2, OverlapRounds: true}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runRingRanks(t, 512, func(rank int, g transport.Group) rankResult {
				if err := exchangePerStage(g, tc.cfg, opts, tc.rounds); err != nil {
					return rankResult{err: err}
				}
				return rankResult{}
			})
			for rank, r := range out {
				if r.err != nil {
					t.Fatalf("rank %d: %v", rank, r.err)
				}
			}
		})
	}
}

// exchangePerStage runs one rank's rounds of TestRingFactorExchangePerStage
// and checks each round's factor batches against the stages it inverted.
func exchangePerStage(g transport.Group, cfg Config, opts kfac.Options, rounds int) error {
	cg := &countingGroup{Group: g}
	cfg.Transport = cg
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		return err
	}
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
	if err != nil {
		return err
	}
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		return err
	}
	if err := e.EnableKFAC(opts, max(cfg.RefreshSteps, 1)); err != nil {
		return err
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(int) error { opt.Step(5e-3); return nil })
	layers := len(e.sets[0].stages[0].layers)
	folded, carried := 0, 0
	for round := range rounds {
		if _, err := e.TrainRound(roundBatches(c, e.RoundSteps(), 8, m.Config.SeqLen)); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		// The generations each stage's sync-curvature ops exchanged.
		synced := make(map[[2]int]bool)
		for _, evs := range e.LastTimeline().Events {
			for _, ev := range evs {
				if ev.Op.Kind == pipeline.SyncCurvature {
					synced[[2]int{ev.Op.Stage, ev.Op.Generation}] = true
					carried += ev.Op.Generation
				}
			}
		}
		perStage := make(map[int]int)
		for _, names := range cg.take() {
			var s int
			if _, err := fmt.Sscanf(names[0][3:], "%d/", &s); err != nil {
				return fmt.Errorf("round %d: factor reduction %q: %v", round, names[0], err)
			}
			if len(names) != 2*layers {
				return fmt.Errorf("round %d stage %d: a factor batch of %d reductions %v, want all %d of the stage's", round, s, len(names), names, 2*layers)
			}
			for f, name := range names {
				if want := fmt.Sprintf("f%c/%d/%d", "AB"[f%2], s, f/2); name != want {
					return fmt.Errorf("round %d stage %d: reduction %d of the batch is %q, want %q", round, s, f, name, want)
				}
			}
			perStage[s]++
		}
		for s := range e.Stages() {
			want := 0
			for gen := range 2 {
				if synced[[2]int{s, gen}] {
					want++
				}
			}
			if perStage[s] != want {
				return fmt.Errorf("round %d stage %d: %d factor batches, want one per generation exchanged, %d", round, s, perStage[s], want)
			}
			folded += want
		}
	}
	if folded == 0 {
		return fmt.Errorf("no round folded a generation")
	}
	if cfg.OverlapRounds && carried == 0 {
		return fmt.Errorf("no carried generation was exchanged: the overlapped rounds must carry one")
	}
	return nil
}
