package pipeline

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/hardware"
)

// unitCosts returns simple costs: forward 10, backward 20 (the 2x ratio the
// paper's profiles show), everything else small.
func unitCosts() StageCosts {
	return StageCosts{
		Forward:                10,
		Backward:               20,
		CurvaturePerMicroBatch: 5,
		InversionUnits:         []hardware.Microseconds{8, 8},
		Precondition:           3,
		OptStep:                2,
	}
}

func TestBuildGPipeStructure(t *testing.T) {
	s, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 1, Costs: unitCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 4 || len(s.Ops) != 4*4*2 {
		t.Fatalf("GPipe: devices %d ops %d, want 4 and 32", s.Devices, len(s.Ops))
	}
	// Device 0 order: F0..F3 then B3..B0.
	order := s.Order[0]
	for i := 0; i < 4; i++ {
		if op := s.Ops[order[i]]; op.Kind != Forward || op.MicroBatch != i {
			t.Fatalf("GPipe device 0 position %d: got %s", i, op.Label())
		}
	}
	for i := 0; i < 4; i++ {
		if op := s.Ops[order[4+i]]; op.Kind != Backward || op.MicroBatch != 3-i {
			t.Fatalf("GPipe device 0 position %d: got %s", 4+i, op.Label())
		}
	}
}

func TestBuild1F1BStructure(t *testing.T) {
	s, err := Build1F1B(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 1, Costs: unitCosts()})
	if err != nil {
		t.Fatal(err)
	}
	// Last stage alternates F,B from the start.
	order := s.Order[3]
	want := []struct {
		kind  WorkKind
		micro int
	}{{Forward, 0}, {Backward, 0}, {Forward, 1}, {Backward, 1}}
	for i, w := range want {
		op := s.Ops[order[i]]
		if op.Kind != w.kind || op.MicroBatch != w.micro {
			t.Fatalf("1F1B last stage position %d: got %s", i, op.Label())
		}
	}
}

func TestGPipeMakespanMatchesTheory(t *testing.T) {
	// With N_micro = D, GPipe's critical path has Cf = Cb = 2D-1 (Table 1):
	// makespan = (2D-1)(Tf + Tb).
	costs := unitCosts()
	for _, d := range []int{2, 4, 8} {
		s, err := BuildGPipe(BuildConfig{Stages: d, MicroBatches: d, Steps: 1, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		tl, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want := hardware.Microseconds(2*d-1) * (costs.Forward + costs.Backward)
		if tl.Makespan != want {
			t.Fatalf("D=%d: GPipe makespan %d, want %d", d, tl.Makespan, want)
		}
	}
}

func Test1F1BMakespanMatchesTheory(t *testing.T) {
	// 1F1B with flush has the same critical path as GPipe when N = D.
	costs := unitCosts()
	for _, d := range []int{2, 4, 8} {
		s, err := Build1F1B(BuildConfig{Stages: d, MicroBatches: d, Steps: 1, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		tl, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want := hardware.Microseconds(2*d-1) * (costs.Forward + costs.Backward)
		if tl.Makespan != want {
			t.Fatalf("D=%d: 1F1B makespan %d, want %d", d, tl.Makespan, want)
		}
	}
}

func TestChimeraMakespanBeatsGPipe(t *testing.T) {
	// Chimera's bidirectional pipelines have Cf = D, Cb = 2D-2 (Table 1):
	// strictly less than GPipe's 2D-1 each, so the step is shorter.
	costs := unitCosts()
	for _, d := range []int{4, 8} {
		g, err := BuildGPipe(BuildConfig{Stages: d, MicroBatches: d, Steps: 1, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		c, err := BuildChimera(BuildConfig{Stages: d, MicroBatches: d, Steps: 1, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		gt, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Makespan >= gt.Makespan {
			t.Fatalf("D=%d: Chimera makespan %d must beat GPipe %d", d, ct.Makespan, gt.Makespan)
		}
		// And it should be within 25%% of the theoretical
		// D*Tf + (2D-2)*Tb critical path.
		theory := hardware.Microseconds(d)*costs.Forward + hardware.Microseconds(2*d-2)*costs.Backward
		if ct.Makespan < theory || float64(ct.Makespan) > 1.25*float64(theory) {
			t.Fatalf("D=%d: Chimera makespan %d outside [%d, 1.25*%d]", d, ct.Makespan, theory, theory)
		}
	}
}

func TestChimeraUtilizationExceedsGPipe(t *testing.T) {
	costs := unitCosts()
	g, _ := BuildGPipe(BuildConfig{Stages: 8, MicroBatches: 8, Steps: 1, Costs: costs})
	c, _ := BuildChimera(BuildConfig{Stages: 8, MicroBatches: 8, Steps: 1, Costs: costs})
	gt, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Utilization() <= gt.Utilization() {
		t.Fatalf("Chimera util %.3f must exceed GPipe %.3f", ct.Utilization(), gt.Utilization())
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	s, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 2, Costs: unitCosts()})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Check every dependency is respected.
	end := make(map[int]hardware.Microseconds)
	start := make(map[int]hardware.Microseconds)
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			end[e.Op.ID] = e.End
			start[e.Op.ID] = e.Start
		}
	}
	for _, op := range s.Ops {
		for _, dep := range op.Deps {
			if start[op.ID] < end[dep] {
				t.Fatalf("op %d starts at %d before dep %d ends at %d", op.ID, start[op.ID], dep, end[dep])
			}
		}
	}
}

func TestNoDeviceOverlap(t *testing.T) {
	for _, build := range []func(BuildConfig) (*Schedule, error){BuildGPipe, Build1F1B, BuildChimera} {
		s, err := build(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 2, Costs: unitCosts(), IncludeOptimizerWork: true})
		if err != nil {
			t.Fatal(err)
		}
		tl, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < tl.Devices; d++ {
			for i := 1; i < len(tl.Events[d]); i++ {
				if tl.Events[d][i].Start < tl.Events[d][i-1].End {
					t.Fatalf("%s: device %d events overlap", s.Name, d)
				}
			}
		}
	}
}

func TestGapsPartitionTimeline(t *testing.T) {
	s, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 1, Costs: unitCosts()})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < tl.Devices; d++ {
		var idle hardware.Microseconds
		for _, g := range tl.Gaps(d, 0, tl.Makespan) {
			if g.End <= g.Start {
				t.Fatalf("degenerate gap %+v", g)
			}
			idle += g.Duration()
		}
		if idle+tl.BusyTime(d) != tl.Makespan {
			t.Fatalf("device %d: busy %d + idle %d != makespan %d", d, tl.BusyTime(d), idle, tl.Makespan)
		}
	}
}

func TestGPipeBubbleFraction(t *testing.T) {
	// GPipe bubble fraction with N = D and Tb = 2Tf is
	// (D-1)/(N+D-1) = (D-1)/(2D-1) of each device's window.
	costs := unitCosts()
	d := 4
	s, _ := BuildGPipe(BuildConfig{Stages: d, MicroBatches: d, Steps: 1, Costs: costs})
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	busyWant := hardware.Microseconds(d) * (costs.Forward + costs.Backward)
	for dev := 0; dev < d; dev++ {
		if tl.BusyTime(dev) != busyWant {
			t.Fatalf("device %d busy %d, want %d", dev, tl.BusyTime(dev), busyWant)
		}
	}
	wantUtil := float64(d) / float64(2*d-1)
	if got := tl.Utilization(); got < wantUtil-1e-9 || got > wantUtil+1e-9 {
		t.Fatalf("GPipe util %.4f, want %.4f", got, wantUtil)
	}
}

func TestMultiStepStepTimes(t *testing.T) {
	s, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 4, Steps: 3, Costs: unitCosts(), IncludeOptimizerWork: true})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.StepEnd) != 3 {
		t.Fatalf("expected 3 step ends, got %d", len(tl.StepEnd))
	}
	// Steady-state steps have equal duration.
	if tl.StepTime(1) != tl.StepTime(2) {
		t.Fatalf("steady steps differ: %d vs %d", tl.StepTime(1), tl.StepTime(2))
	}
}

func TestDataParallelWidthCreatesReplicas(t *testing.T) {
	costs := unitCosts()
	costs.SyncGrad = 4
	s, err := BuildGPipe(BuildConfig{
		Stages: 4, MicroBatches: 4, Steps: 1, Costs: costs,
		DataParallelWidth: 2, IncludeOptimizerWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 8 {
		t.Fatalf("W=2 must double devices, got %d", s.Devices)
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	syncs := tl.EventsOfKind(SyncGrad)
	if len(syncs) != 8 {
		t.Fatalf("expected 8 sync-grad events, got %d", len(syncs))
	}
	// Sync must start only after both replicas of the stage finished all
	// backwards.
	for _, sy := range syncs {
		stage := sy.Op.Stage
		for d := 0; d < tl.Devices; d++ {
			for _, e := range tl.Events[d] {
				if e.Op.Kind == Backward && e.Op.Stage == stage && sy.Start < e.End {
					t.Fatalf("sync-grad of stage %d starts before a backward ends", stage)
				}
			}
		}
	}
}

func TestChimeraRequiresEvenStagesAndMicroBatches(t *testing.T) {
	if _, err := BuildChimera(BuildConfig{Stages: 3, MicroBatches: 4, Costs: unitCosts()}); err == nil {
		t.Fatal("expected error for odd stages")
	}
	if _, err := BuildChimera(BuildConfig{Stages: 4, MicroBatches: 3, Costs: unitCosts()}); err == nil {
		t.Fatal("expected error for odd micro-batches")
	}
}

func TestBuildConfigValidation(t *testing.T) {
	if _, err := BuildGPipe(BuildConfig{Stages: 0, MicroBatches: 4, Costs: unitCosts()}); err == nil {
		t.Fatal("expected error for zero stages")
	}
	if _, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 0, Costs: unitCosts()}); err == nil {
		t.Fatal("expected error for zero micro-batches")
	}
	if _, err := BuildGPipe(BuildConfig{Stages: 4, MicroBatches: 4}); err == nil {
		t.Fatal("expected error for zero costs")
	}
}

func TestCostsForBERTBaseP100(t *testing.T) {
	costs, err := CostsFor(CostConfig{
		Arch: arch.BERTBase, BlocksPerStage: 3, MicroBatch: 32, GPU: hardware.P100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shape constraints from the paper's profiles (Figure 3): backward
	// about 2x forward; curvature comparable to forward; inversion
	// independent of micro-batch; precondition small relative to a step.
	ratio := float64(costs.Backward) / float64(costs.Forward)
	if ratio < 1.7 || ratio > 2.5 {
		t.Fatalf("backward/forward ratio %.2f outside [1.7, 2.5]", ratio)
	}
	if costs.CurvaturePerMicroBatch <= 0 || costs.Precondition <= 0 {
		t.Fatal("curvature and precondition must be positive")
	}
	if len(costs.InversionUnits) != 3*12 {
		t.Fatalf("expected 36 inversion units (12 factors x 3 blocks), got %d", len(costs.InversionUnits))
	}
	// The profiled step time regime: forward for 3 BERT-Base blocks at
	// B_micro=32, S=128 on P100 is tens of milliseconds.
	if costs.Forward < 10_000 || costs.Forward > 120_000 {
		t.Fatalf("forward %d us outside plausible P100 range", costs.Forward)
	}
}

func TestCostsForInversionIndependentOfMicroBatch(t *testing.T) {
	c8, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 8, GPU: hardware.P100})
	if err != nil {
		t.Fatal(err)
	}
	c64, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 64, GPU: hardware.P100})
	if err != nil {
		t.Fatal(err)
	}
	if c8.InversionTotal() != c64.InversionTotal() {
		t.Fatal("inversion time must not depend on micro-batch size")
	}
	if c64.CurvaturePerMicroBatch <= c8.CurvaturePerMicroBatch {
		t.Fatal("curvature time must grow with micro-batch size")
	}
}

func TestCostsForRecompute(t *testing.T) {
	plain, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 8, GPU: hardware.P100})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 8, GPU: hardware.P100, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Backward != plain.Backward+plain.Forward {
		t.Fatalf("recompute backward %d, want %d", rec.Backward, plain.Backward+plain.Forward)
	}
}

func TestCostsForValidation(t *testing.T) {
	if _, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 0, MicroBatch: 8, GPU: hardware.P100}); err == nil {
		t.Fatal("expected error for zero blocks per stage")
	}
	if _, err := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 0, GPU: hardware.P100}); err == nil {
		t.Fatal("expected error for zero micro-batch")
	}
}

func TestCostsForDataParallelCollectives(t *testing.T) {
	single, _ := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 3, MicroBatch: 32, GPU: hardware.P100})
	if single.SyncGrad != 0 || single.SyncCurvature != 0 {
		t.Fatal("W=1 must have zero collective costs")
	}
	dp, _ := CostsFor(CostConfig{Arch: arch.BERTBase, BlocksPerStage: 3, MicroBatch: 32, GPU: hardware.P100, DataParallelWidth: 2})
	if dp.SyncGrad <= 0 || dp.SyncCurvature <= 0 {
		t.Fatal("W=2 must have positive collective costs")
	}
}

// Property: for any valid (D, N), GPipe and 1F1B have identical makespan
// with N >= 1 (same flush critical path), and utilization is in (0, 1].
func TestSchedulePropertyInvariants(t *testing.T) {
	f := func(dRaw, nRaw uint8) bool {
		d := 2 + int(dRaw%6)
		n := 1 + int(nRaw%8)
		costs := unitCosts()
		g, err := BuildGPipe(BuildConfig{Stages: d, MicroBatches: n, Steps: 1, Costs: costs})
		if err != nil {
			return false
		}
		o, err := Build1F1B(BuildConfig{Stages: d, MicroBatches: n, Steps: 1, Costs: costs})
		if err != nil {
			return false
		}
		gt, err := Run(g)
		if err != nil {
			return false
		}
		ot, err := Run(o)
		if err != nil {
			return false
		}
		if gt.Makespan != ot.Makespan {
			return false
		}
		u := gt.Utilization()
		return u > 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chimera timelines respect all dependencies for random sizes.
func TestChimeraDependencyProperty(t *testing.T) {
	f := func(dRaw, nRaw uint8) bool {
		d := 2 * (1 + int(dRaw%4)) // 2,4,6,8
		n := 2 * (1 + int(nRaw%4))
		s, err := BuildChimera(BuildConfig{Stages: d, MicroBatches: n, Steps: 2, Costs: unitCosts(), IncludeOptimizerWork: true})
		if err != nil {
			return false
		}
		tl, err := Run(s)
		if err != nil {
			return false
		}
		end := make(map[int]hardware.Microseconds)
		start := make(map[int]hardware.Microseconds)
		for dev := 0; dev < tl.Devices; dev++ {
			for _, e := range tl.Events[dev] {
				end[e.Op.ID] = e.End
				start[e.Op.ID] = e.Start
			}
		}
		for _, op := range s.Ops {
			for _, dep := range op.Deps {
				if start[op.ID] < end[dep] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChimeraDataParallelWidthReplicatesPairs(t *testing.T) {
	// W = 2 Chimera replicates the whole bidirectional pair: 2*D devices,
	// each replica carrying its own N micro-batches, coupled by a
	// cross-replica sync-grad in the step tail.
	costs := unitCosts()
	costs.SyncGrad = 4
	s, err := BuildChimera(BuildConfig{
		Stages: 4, MicroBatches: 4, Steps: 1, Costs: costs,
		DataParallelWidth: 2, IncludeOptimizerWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 8 {
		t.Fatalf("W=2 Chimera must double devices, got %d", s.Devices)
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Replica r occupies devices [r*D, (r+1)*D); every op is tagged.
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			if e.Op.Replica != d/4 {
				t.Fatalf("device %d event %s tagged replica %d, want %d", d, e.Op.Label(), e.Op.Replica, d/4)
			}
		}
	}
	// The sync-grad of any device starts only after every replica's
	// backwards of the device's two stages finished.
	syncs := tl.EventsOfKind(SyncGrad)
	if len(syncs) != 8 {
		t.Fatalf("expected 8 sync-grad events, got %d", len(syncs))
	}
	for _, sy := range syncs {
		stages := map[int]bool{sy.Op.Stage: true, 3 - sy.Op.Stage: true}
		for d := 0; d < tl.Devices; d++ {
			for _, e := range tl.Events[d] {
				if e.Op.Kind == Backward && stages[e.Op.Stage] && sy.Start < e.End {
					t.Fatalf("sync-grad of stage %d starts before a replica-%d backward of stage %d ends",
						sy.Op.Stage, e.Op.Replica, e.Op.Stage)
				}
			}
		}
	}
	// A replica's forward/backward dataflow stays within the replica: the
	// W=1 schedule shape is preserved per replica (same per-replica op
	// count).
	perReplica := map[int]int{}
	for _, op := range s.Ops {
		if op.Kind == Forward || op.Kind == Backward {
			perReplica[op.Replica]++
		}
	}
	if perReplica[0] != perReplica[1] || perReplica[0] != 2*4*4 {
		t.Fatalf("per-replica F/B op counts %v, want 32 each", perReplica)
	}
}

// The executor's step commit rests on this contract: the commit signals a
// step's OptStep ops only once the optimizer ran, so the first base op
// after each OptStep in a device's order must depend on that OptStep — the
// dependency wait is then what holds the device's next step through the
// commit, while the refresh ops between them may run beside it.
func TestNextStepBaseOpsFollowOwnOptStep(t *testing.T) {
	checked := 0
	for _, method := range Methods() {
		for _, d := range []int{2, 4, 8} {
			for _, n := range []int{2, 4, 8, 16} {
				for _, w := range []int{1, 2} {
					for _, steps := range []int{1, 2, 3} {
						if Feasible(method, d, n) != nil {
							continue
						}
						name := fmt.Sprintf("%s/D%d/N%d/W%d/K%d", method, d, n, w, steps)
						s, err := Build(method, BuildConfig{
							Stages: d, MicroBatches: n, Steps: steps, DataParallelWidth: w,
							Costs:                StageCosts{Forward: 100, Backward: 200, OptStep: 10, SyncGrad: 60},
							IncludeOptimizerWork: true,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for dev, order := range s.Order {
							opt := -1
							for _, id := range order {
								op := s.Ops[id]
								switch {
								case op.Kind == OptStep:
									opt = id
								case opt >= 0 && !op.Kind.IsRefresh():
									if !slices.Contains(op.Deps, opt) {
										t.Errorf("%s: device %d's %s does not depend on its OptStep %s",
											name, dev, op.Label(), s.Ops[opt].Label())
									}
									opt = -1
									checked++
								}
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no base op followed an OptStep")
	}
}
