package schedule

import (
	"slices"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// dataParallelConfig is execTestConfig plus the collective costs a W > 1
// replica group needs.
func dataParallelConfig(method string, w int, invParallel bool) Config {
	cfg := execTestConfig(method)
	cfg.DataParallelWidth = w
	cfg.InversionParallel = invParallel
	cfg.Costs.SyncGrad = 60
	cfg.Costs.SyncCurvature = 20
	return cfg
}

// Executable must emit valid, runnable W > 1 op lists for every method —
// the combination (DataParallelWidth > 1, InversionParallel) included,
// which the executor now supports end to end. Regression: sync-curvature
// items created after the inversion items used to end up *after* them in
// the per-device order whenever the bubbles could not hold them, and since
// inversions depend on their stage's sync ops, the executable form
// deadlocked.
func TestExecutableDataParallel(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, invParallel := range []bool{false, true} {
			cfg := dataParallelConfig(method, 2, invParallel)
			s, err := Executable(cfg)
			if err != nil {
				t.Fatalf("%s invparallel=%v: %v", method, invParallel, err)
			}
			if want := cfg.Stages * 2; s.Devices != want {
				t.Fatalf("%s: W=2 executable spans %d devices, want %d", method, s.Devices, want)
			}
			tl, err := pipeline.Run(s)
			if err != nil {
				t.Fatalf("%s invparallel=%v: executable schedule stalls: %v", method, invParallel, err)
			}
			if got := len(tl.EventsOfKind(pipeline.SyncGrad)); got != s.Devices {
				t.Fatalf("%s: %d sync-grad ops, want one per device (%d)", method, got, s.Devices)
			}
			syncCurv := len(tl.EventsOfKind(pipeline.SyncCurvature))
			if invParallel && syncCurv == 0 {
				t.Fatalf("%s: InversionParallel with W=2 must emit sync-curvature collectives", method)
			}
			if !invParallel && syncCurv != 0 {
				t.Fatalf("%s: %d sync-curvature ops without InversionParallel, want 0", method, syncCurv)
			}
		}
	}
}

// InversionParallel with W > 1 assigns each stage's inversion units
// round-robin across the replica group: every owner device inverts a
// strict, non-empty subset of the factors (each replica inverts its shard,
// then broadcasts).
func TestExecutableInversionRoundRobinAcrossReplicas(t *testing.T) {
	cfg := dataParallelConfig("gpipe", 2, true)
	s, err := Executable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nFactors := len(cfg.Costs.InversionUnits)
	for stage := 0; stage < cfg.Stages; stage++ {
		perDevice := map[int]int{}
		seen := map[int]bool{}
		for _, op := range s.Ops {
			if op.Kind != pipeline.Inversion || op.Stage != stage {
				continue
			}
			if seen[op.Factor] {
				t.Fatalf("stage %d factor %d inverted more than once under InversionParallel", stage, op.Factor)
			}
			seen[op.Factor] = true
			perDevice[op.Device]++
			if wantDev := stage*2 + op.Factor%2; op.Device != wantDev {
				t.Fatalf("stage %d factor %d on device %d, want round-robin device %d",
					stage, op.Factor, op.Device, wantDev)
			}
			if op.Replica != op.Factor%2 {
				t.Fatalf("stage %d factor %d tagged replica %d, want %d", stage, op.Factor, op.Replica, op.Factor%2)
			}
		}
		if len(seen) != nFactors {
			t.Fatalf("stage %d has %d inversion ops, want %d", stage, len(seen), nFactors)
		}
		if len(perDevice) != 2 {
			t.Fatalf("stage %d inversion work on %d devices, want both replicas", stage, len(perDevice))
		}
	}
	// Without InversionParallel every replica duplicates the stage's
	// inversion work instead.
	cfg = dataParallelConfig("gpipe", 2, false)
	s, err = Executable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, op := range s.Ops {
		if op.Kind == pipeline.Inversion && op.Stage == 0 {
			count++
		}
	}
	if count != 2*nFactors {
		t.Fatalf("without InversionParallel stage 0 has %d inversion ops, want %d (duplicated per replica)",
			count, 2*nFactors)
	}
}

// Assign (the timing-analysis path) accepts the same W > 1 combinations.
func TestAssignDataParallelInversionParallel(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		res, err := Assign(dataParallelConfig(method, 2, true))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if res.RefreshSteps < 1 {
			t.Fatalf("%s: refresh steps %d", method, res.RefreshSteps)
		}
	}
}

// Regression: the packing pass must actually *place* sync-curvature items
// (and therefore the inversions gated on them) into the bubbles when the
// stage's curvature packed. The placement check used to include the sync
// items themselves, so the item under consideration always reported itself
// unplaced, every sync was refused, and all inversion work silently spilled
// out of the bubbles to the end of the pre-tail order.
func TestPackPlacesSyncAndInversions(t *testing.T) {
	cfg, err := dataParallelConfig("1f1b", 2, true).normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, _, items, err := packRound(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}

	placedByKind := map[pipeline.WorkKind][2]int{} // kind -> {placed, total}
	for _, it := range items {
		c := placedByKind[it.kind]
		if it.placed {
			c[0]++
		}
		c[1]++
		placedByKind[it.kind] = c
	}
	for _, kind := range []pipeline.WorkKind{pipeline.Curvature, pipeline.SyncCurvature, pipeline.Inversion} {
		c := placedByKind[kind]
		if c[1] == 0 {
			t.Fatalf("no %v items in the work queue", kind)
		}
		if c[0] == 0 {
			t.Fatalf("no %v item was placed into a bubble (%d candidates)", kind, c[1])
		}
	}
}

// A group that spans processes gets one sync-curvature op per (stage,
// owner) whatever InversionParallel says, even priced at zero (a round
// re-simulated with measured costs in which no generation was exchanged),
// and every inversion of the stage waits for its stage's syncs.
func TestExecutableCrossProcessSyncs(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, cost := range []int{0, 20} {
			for _, overlap := range []bool{false, true} {
				cfg := execTestConfig(method)
				cfg.CrossProcess, cfg.Overlap, cfg.RefreshSteps = true, overlap, 2
				cfg.Costs.SyncCurvature = hardware.Microseconds(cost)
				s, err := Executable(cfg)
				if err != nil {
					t.Fatalf("%s cost %d overlap %v: %v", method, cost, overlap, err)
				}
				if _, err := pipeline.Run(s); err != nil {
					t.Fatalf("%s cost %d overlap %v: executable schedule stalls: %v", method, cost, overlap, err)
				}
				syncs := make(map[int][]int) // stage -> its sync ops
				for _, op := range s.Ops {
					if op.Kind == pipeline.SyncCurvature {
						syncs[op.Stage] = append(syncs[op.Stage], op.ID)
					}
				}
				for stage, owners := range s.Placement.Owners {
					if len(syncs[stage]) != len(owners) {
						t.Fatalf("%s cost %d: stage %d has %d sync-curvature ops, want one per owner (%d)", method, cost, stage, len(syncs[stage]), len(owners))
					}
				}
				for _, op := range s.Ops {
					if op.Kind != pipeline.Inversion || op.Chain > 1 {
						continue
					}
					for _, id := range syncs[op.Stage] {
						if !slices.Contains(op.Deps, id) {
							t.Fatalf("%s cost %d: inversion %s does not wait for its stage's sync %d", method, cost, op.Label(), id)
						}
					}
				}
			}
		}
	}
}
