package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// paperCosts builds the Figure 3 configuration: BERT-Base, 4 stages of 3
// blocks, B_micro = 32, sequence 128, P100.
func paperCosts(t *testing.T, blocks, micro int, a arch.Transformer, w int) pipeline.StageCosts {
	t.Helper()
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: a, BlocksPerStage: blocks, MicroBatch: micro,
		GPU: hardware.P100, DataParallelWidth: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	return costs
}

func TestAssignGPipeBERTBase(t *testing.T) {
	// Figure 3 (left): GPipe, BERT-Base, 4 stages x 3 blocks, N=4, B=32.
	// Paper: utilization rises from 41.7% to 89.0%; curvature+inverse
	// refresh within <= 2 steps.
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{
		Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unassigned != 0 {
		t.Fatalf("%d K-FAC items unassigned", res.Unassigned)
	}
	if res.VanillaUtilization > 0.70 {
		t.Fatalf("vanilla GPipe utilization %.3f unexpectedly high", res.VanillaUtilization)
	}
	if res.Utilization < res.VanillaUtilization+0.15 {
		t.Fatalf("PipeFisher must lift utilization substantially: %.3f -> %.3f",
			res.VanillaUtilization, res.Utilization)
	}
	if res.Utilization < 0.75 || res.Utilization > 1.0 {
		t.Fatalf("PipeFisher utilization %.3f outside [0.75, 1.0]", res.Utilization)
	}
	if res.RefreshSteps < 1 || res.RefreshSteps > 4 {
		t.Fatalf("refresh interval %d steps, paper regime is 1-4", res.RefreshSteps)
	}
	// Precondition is the only per-step overhead, and it is small (<15%).
	overhead := float64(res.StepTime-res.VanillaStepTime) / float64(res.VanillaStepTime)
	if overhead < 0 || overhead > 0.15 {
		t.Fatalf("per-step overhead %.3f outside [0, 0.15]", overhead)
	}
}

func TestAssign1F1BBERTBase(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{
		Method: "1f1b", Stages: 4, MicroBatches: 4, Costs: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unassigned != 0 {
		t.Fatalf("%d items unassigned", res.Unassigned)
	}
	if res.Utilization < res.VanillaUtilization+0.15 {
		t.Fatalf("1F1B w/ PipeFisher utilization %.3f vs vanilla %.3f",
			res.Utilization, res.VanillaUtilization)
	}
}

func TestAssignChimeraBERTLarge(t *testing.T) {
	// Figure 4: Chimera, BERT-Large, 8 stages x 3 blocks, N=8, B=32.
	// Paper: utilization 59.8% -> 97.6% with data & inversion parallelism;
	// refresh within 2-4 steps.
	costs := paperCosts(t, 3, 32, arch.BERTLarge, 2)
	res, err := Assign(Config{
		Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
		InversionParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unassigned != 0 {
		t.Fatalf("%d items unassigned", res.Unassigned)
	}
	if res.VanillaUtilization < 0.45 || res.VanillaUtilization > 0.85 {
		t.Fatalf("vanilla Chimera utilization %.3f outside plausible range", res.VanillaUtilization)
	}
	if res.Utilization < res.VanillaUtilization+0.10 {
		t.Fatalf("Chimera w/ PipeFisher %.3f vs vanilla %.3f",
			res.Utilization, res.VanillaUtilization)
	}
	if res.RefreshSteps < 1 || res.RefreshSteps > 6 {
		t.Fatalf("refresh interval %d steps, paper regime is 2-4", res.RefreshSteps)
	}
}

func TestAssignedEventsStayInBubbles(t *testing.T) {
	// The K-FAC events must not overlap the base schedule's events — they
	// live strictly inside the bubbles.
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	for d := 0; d < tl.Devices; d++ {
		evs := tl.Events[d]
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].End {
				t.Fatalf("device %d: event %q [%d,%d) overlaps %q [%d,%d)",
					d, evs[i].Op.Kind, evs[i].Start, evs[i].End,
					evs[i-1].Op.Kind, evs[i-1].Start, evs[i-1].End)
			}
		}
	}
}

func TestRule1CurvatureAfterForwardBackward(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	// Every curvature event for (stage, micro) must start at or after the
	// forward of that (stage, micro) in step 0 (A factors) — we check the
	// weaker bound that holds for both kinds: not before the forward.
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			if e.Op.Kind != pipeline.Curvature {
				continue
			}
			fEv, ok := tl.FindEvent(func(op *pipeline.Op) bool {
				return op.Kind == pipeline.Forward && op.Stage == e.Op.Stage &&
					op.MicroBatch == e.Op.MicroBatch && op.Step == 0 && op.Device == d
			})
			if !ok {
				t.Fatalf("no forward found for curvature event stage %d micro %d", e.Op.Stage, e.Op.MicroBatch)
			}
			if e.Start < fEv.End {
				t.Fatalf("curvature for (s%d,m%d) starts %d before forward end %d",
					e.Op.Stage, e.Op.MicroBatch, e.Start, fEv.End)
			}
		}
	}
}

func TestRule2InversionAfterCurvature(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	for d := 0; d < tl.Devices; d++ {
		var lastCurv, firstInv hardware.Microseconds
		firstInv = tl.Makespan + 1
		for _, e := range tl.Events[d] {
			switch e.Op.Kind {
			case pipeline.Curvature:
				if e.End > lastCurv {
					lastCurv = e.End
				}
			case pipeline.Inversion:
				if e.Start < firstInv {
					firstInv = e.Start
				}
			}
		}
		// Device-level sanity: some inversion may interleave with later
		// curvature of other factors, but no inversion may precede ALL
		// curvature on the device.
		var firstCurv hardware.Microseconds = tl.Makespan + 1
		for _, e := range tl.Events[d] {
			if e.Op.Kind == pipeline.Curvature && e.Start < firstCurv {
				firstCurv = e.Start
			}
		}
		if firstInv <= firstCurv && firstInv <= tl.Makespan {
			t.Fatalf("device %d: inversion at %d before any curvature at %d", d, firstInv, firstCurv)
		}
	}
}

func TestPreconditionEveryStep(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	precs := res.Timeline.EventsOfKind(pipeline.Precondition)
	want := res.Timeline.Devices * res.Timeline.Steps
	if len(precs) != want {
		t.Fatalf("expected %d precondition events (one per device per step), got %d", want, len(precs))
	}
}

func TestInversionParallelSpreadsWork(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTLarge, 2)
	single, err := Assign(Config{
		Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Assign(Config{
		Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
		InversionParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With splitting, the refresh should be no slower (usually faster).
	if parallel.RefreshSteps > single.RefreshSteps {
		t.Fatalf("inversion parallelism slowed refresh: %d vs %d steps",
			parallel.RefreshSteps, single.RefreshSteps)
	}
	// And sync-curvature events must appear.
	if n := len(parallel.Timeline.EventsOfKind(pipeline.SyncCurvature)); n == 0 {
		t.Fatal("expected sync-curvature events with inversion parallelism")
	}
}

func TestDataInversionParallelGPipe(t *testing.T) {
	// Figure 3 (bottom): GPipe w/ PipeFisher w/ data & inversion
	// parallelism on 8 GPUs (W=2).
	costs := paperCosts(t, 3, 32, arch.BERTBase, 2)
	res, err := Assign(Config{
		Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs,
		DataParallelWidth: 2, InversionParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.Devices != 8 {
		t.Fatalf("expected 8 devices, got %d", res.Timeline.Devices)
	}
	if res.Unassigned != 0 {
		t.Fatalf("%d items unassigned", res.Unassigned)
	}
	if res.Utilization < res.VanillaUtilization {
		t.Fatalf("utilization fell: %.3f -> %.3f", res.VanillaUtilization, res.Utilization)
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Assign(Config{Method: "ring", Stages: 4, MicroBatches: 4}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestRefreshIntervalGrowsWithMicroBatches(t *testing.T) {
	// More micro-batches shrink the bubbles (the paper's observation:
	// "as the number of micro-batches is increased, the ratio increases").
	costs := paperCosts(t, 1, 8, arch.BERTBase, 1)
	few, err := Assign(Config{Method: "gpipe", Stages: 8, MicroBatches: 8, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Assign(Config{Method: "gpipe", Stages: 8, MicroBatches: 24, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	if many.RefreshSteps < few.RefreshSteps {
		t.Fatalf("refresh must not shrink with more micro-batches: %d (N=8) vs %d (N=24)",
			few.RefreshSteps, many.RefreshSteps)
	}
}

// Property: for random valid configurations, assignment terminates, packs
// all work somewhere (or reports leftovers), never overlaps events, and
// never lowers utilization below vanilla.
func TestAssignInvariantsProperty(t *testing.T) {
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 8, GPU: hardware.P100,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(methodRaw, dRaw, nRaw uint8) bool {
		methods := []string{"gpipe", "1f1b", "chimera"}
		method := methods[int(methodRaw)%3]
		d := 2 * (1 + int(dRaw%3)) // 2, 4, 6
		n := 2 * (1 + int(nRaw%3))
		res, err := Assign(Config{Method: method, Stages: d, MicroBatches: n, Costs: costs})
		if err != nil {
			return false
		}
		tl := res.Timeline
		for dev := 0; dev < tl.Devices; dev++ {
			for i := 1; i < len(tl.Events[dev]); i++ {
				if tl.Events[dev][i].Start < tl.Events[dev][i-1].End {
					return false
				}
			}
		}
		return res.Utilization >= res.VanillaUtilization-0.02 && res.RefreshSteps >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignFigureHeadlines pins Assign's headline numbers for the five
// profile-figure configurations cmd/figures renders (BlocksPerStage and the
// chimera W = 1 mapping as there). The values are the ones the pre-merge
// Assign, with its own packer and inversion rule, reported at 484c28d:
// rerouting Assign through the executable's pass must not move them (only
// RefreshStepsPerStage moves, by one step on some stages). The Chimera row
// was re-recorded when its device orders became a phase order: the vanilla
// step fell to Table 1's D·T_f + (2D−2)·T_b (3 205 068 -> 2 751 762 µs,
// utilization 57.1 % -> 67.1 %), and the smaller bubbles hold the refresh
// in 4 steps instead of 3.
func TestAssignFigureHeadlines(t *testing.T) {
	cases := []struct {
		name           string
		a              arch.Transformer
		method         string
		stages, blocks int
		nmicro, dp     int
		invPar         bool
		vanillaUtil    float64
		util           float64
		vanillaStep    hardware.Microseconds
		step           hardware.Microseconds
		refresh        int
	}{
		{"figure1_gpipe_schematic", arch.BERTBase, "gpipe", 4, 1, 4, 1, false, 0.571789, 0.867012, 299978, 310429, 3},
		{"figure3_gpipe_bertbase", arch.BERTBase, "gpipe", 4, 3, 4, 1, false, 0.571770, 0.867004, 899902, 931255, 3},
		{"figure3_1f1b_bertbase", arch.BERTBase, "1f1b", 4, 3, 4, 1, false, 0.571770, 0.867004, 899902, 931255, 3},
		{"figure3_gpipe_data_inv_parallel", arch.BERTBase, "gpipe", 4, 3, 4, 2, true, 0.575784, 0.842931, 908417, 939770, 3},
		{"figure4_chimera_bertlarge", arch.BERTLarge, "chimera", 8, 3, 8, 2, true, 0.670665, 0.916314, 2751762, 2899904, 4},
	}
	for _, c := range cases {
		dpSched := c.dp
		if c.method == "chimera" {
			dpSched = 1 // Chimera's pair replication is built in
		}
		res, err := Assign(Config{
			Method: c.method, Stages: c.stages, MicroBatches: c.nmicro,
			Costs:             paperCosts(t, c.blocks, 32, c.a, c.dp),
			DataParallelWidth: dpSched, InversionParallel: c.invPar,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Unassigned != 0 || res.RefreshSteps != c.refresh ||
			res.StepTime != c.step || res.VanillaStepTime != c.vanillaStep ||
			math.Abs(res.Utilization-c.util) > 5e-7 || math.Abs(res.VanillaUtilization-c.vanillaUtil) > 5e-7 {
			t.Errorf("%s: utilization %.6f -> %.6f, step %d -> %d us, refresh %d (%d unassigned); want %.6f -> %.6f, %d -> %d, %d",
				c.name, res.VanillaUtilization, res.Utilization, res.VanillaStepTime, res.StepTime, res.RefreshSteps, res.Unassigned,
				c.vanillaUtil, c.util, c.vanillaStep, c.step, c.refresh)
		}
	}
}
