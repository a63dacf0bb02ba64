package schedule

import (
	"fmt"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// chainCosts is the exec shape with factors 1 and 2 inverted as 7-step
// chains longer than a forward in total, one step of which (the last) is
// longer than a forward on its own.
func chainCosts(w int, invParallel bool) pipeline.StageCosts {
	c := unitCosts(100, 200,
		[]hardware.Microseconds{6, 20, 20, 6}, []hardware.Microseconds{10, 420, 420, 10})(nil, w, invParallel)
	steps := []hardware.Microseconds{40, 60, 60, 40, 60, 60, 110}
	c.InversionChains = [][]hardware.Microseconds{nil, steps, steps, nil}
	return c
}

// TestInversionChainsInExecutable: over methods x D x N x W x inversion
// sharding x K x {serialized, overlap depth 2}, a factor with an
// inversion chain becomes one op per step on one device — Chain 1..n in
// order, each after the step before it and only that, one generation, never
// an earlier window step than its predecessor, each packed whole into one
// bubble — and only the last step binds preconditions. Every schedule is
// degraded-safe and runs in the simulator.
func TestInversionChainsInExecutable(t *testing.T) {
	chains := 0
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, d := range []int{2, 4} {
			for _, n := range []int{2, 4} {
				for _, w := range []int{1, 2} {
					for _, invPar := range []bool{false, true} {
						for _, k := range []int{1, 2, 4} {
							for _, depth := range []int{1, 2} {
								cfg := Config{
									Method: method, Stages: d, MicroBatches: n, Costs: chainCosts(w, invPar),
									DataParallelWidth: w, InversionParallel: invPar, RefreshSteps: k,
									Overlap: depth > 1,
								}
								if depth > 1 {
									cfg.CarryDepth = depth
								}
								name := fmt.Sprintf("%s D%d N%d W%d invpar=%v K%d depth %d", method, d, n, w, invPar, k, depth)
								chains += checkChains(t, name, cfg)
							}
						}
					}
				}
			}
		}
	}
	if chains == 0 {
		t.Fatal("no inversion chain in the matrix")
	}
}

// checkChains checks one configuration and returns its chain count.
func checkChains(t *testing.T, name string, cfg Config) int {
	t.Helper()
	s, err := Executable(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := ValidateDegradedSafety(s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := pipeline.Run(s); err != nil {
		t.Fatalf("%s: simulator: %v", name, err)
	}
	pos := make([]int, len(s.Ops))
	for _, order := range s.Order {
		for i, id := range order {
			pos[id] = i
		}
	}
	steps := len(cfg.Costs.Chain(1))
	chains := 0
	for _, op := range s.Ops {
		if op.Kind != pipeline.Inversion {
			continue
		}
		chained := len(cfg.Costs.Chain(op.Factor)) > 0
		if chained != (op.Chain > 0) {
			t.Fatalf("%s: inversion %d of factor %d has Chain %d", name, op.ID, op.Factor, op.Chain)
		}
		if op.Chain != 1 {
			continue
		}
		chains++
		prev := op
		for c := 2; c <= steps; c++ {
			next := s.Ops[prev.ID+1]
			if next.Kind != pipeline.Inversion || next.Chain != c || next.Factor != op.Factor ||
				next.Device != op.Device || next.Replica != op.Replica || next.Generation != op.Generation {
				t.Fatalf("%s: op %d follows chain step %d of factor %d: %+v", name, next.ID, c-1, op.Factor, next)
			}
			// Besides the step before it, only the last step may wait — for
			// a precondition, which checkCommitEdges holds to its rule.
			extra := len(next.Deps) - 1
			if c == steps && extra == 1 && s.Ops[next.Deps[1]].Kind == pipeline.Precondition {
				extra = 0
			}
			if extra != 0 || next.Deps[0] != prev.ID || next.Step < prev.Step || pos[next.ID] <= pos[prev.ID] {
				t.Fatalf("%s: chain step %d (deps %v, step %d, position %d) does not follow step %d (op %d, step %d, position %d)",
					name, c, next.Deps, next.Step, pos[next.ID], c-1, prev.ID, prev.Step, pos[prev.ID])
			}
			prev = next
		}
	}
	for _, op := range s.Ops {
		if op.Kind != pipeline.Precondition {
			continue
		}
		for _, dep := range op.Deps {
			if inv := s.Ops[dep]; inv.Kind == pipeline.Inversion && inv.Chain > 0 && inv.Chain < steps {
				t.Fatalf("%s: precondition %d waits for chain step %d, not the chain's last", name, op.ID, inv.Chain)
			}
		}
	}
	checkCommitEdges(t, name, s)
	_, _, items, err := packRound(mustNormalize(t, cfg), cfg.RefreshSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.chain > 0 && it.placed && len(it.pieces) != 1 {
			t.Fatalf("%s: chain step %d of factor %d split across %d bubbles", name, it.chain, it.factor, len(it.pieces))
		}
	}
	return chains
}

func mustNormalize(t *testing.T, cfg Config) Config {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// checkCommitEdges holds a schedule to the pending-commit contract: an
// inversion that swaps an inverse in step j >= 1 on a device other than the
// one preconditioning its stage at step j-1 depends on that precondition,
// and inversions depend on no other precondition.
func checkCommitEdges(t *testing.T, name string, s *pipeline.Schedule) {
	t.Helper()
	precond := map[[2]int]*pipeline.Op{}
	for _, op := range s.Ops {
		if op.Kind == pipeline.Precondition && op.Replica == 0 {
			precond[[2]int{op.Stage, op.Step}] = op
		}
	}
	swaps := map[*pipeline.Op]bool{}
	for _, op := range s.Ops {
		if op.Kind == pipeline.Inversion && op.Chain == 0 {
			swaps[op] = true
		}
		if op.Kind == pipeline.Inversion && op.Chain > 0 && (op.ID+1 == len(s.Ops) || s.Ops[op.ID+1].Chain != op.Chain+1) {
			swaps[op] = true
		}
	}
	for _, op := range s.Ops {
		if op.Kind != pipeline.Inversion {
			continue
		}
		want := -1
		if p := precond[[2]int{op.Stage, op.Step - 1}]; swaps[op] && p != nil && p.Device != op.Device {
			want = p.ID
		}
		got := -1
		for _, dep := range op.Deps {
			if s.Ops[dep].Kind == pipeline.Precondition {
				if got >= 0 {
					t.Fatalf("%s: inversion %d waits for two preconditions", name, op.ID)
				}
				got = dep
			}
		}
		if got != want {
			t.Fatalf("%s: inversion %d (stage %d step %d device %d chain %d) waits for precondition %d, want %d",
				name, op.ID, op.Stage, op.Step, op.Device, op.Chain, got, want)
		}
	}
}
