package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// placementError re-derives, from the ops alone, everything the schedule's
// Placement claims and reports the first disagreement: every (replica,
// pipeline, stage) sits on one device and has exactly one owner entry naming
// it; a device's hosted stages are the stages of its forward ops, in pipeline
// order; each replica's owner ranges of a stage partition [0, N) and are the
// micro-batches the owner's ops carry; step-tail ops sit on the device that
// hosts their stage, and carry its first hosted stage.
func placementError(s *Schedule) error {
	p := s.Placement
	if p == nil {
		return fmt.Errorf("no placement")
	}
	type set struct{ replica, pipeline, stage int }
	device := map[set]int{}
	micros := map[set][]int{}
	hosted := make([][]set, s.Devices)
	for _, op := range s.Ops {
		switch op.Kind {
		case Forward, Backward:
			k := set{op.Replica, op.Pipeline, op.Stage}
			if dev, ok := device[k]; ok && dev != op.Device {
				return fmt.Errorf("%+v runs on devices %d and %d", k, dev, op.Device)
			}
			device[k] = op.Device
			if op.Kind == Forward && op.Step == 0 {
				micros[k] = append(micros[k], op.MicroBatch)
				if !slices.Contains(hosted[op.Device], k) {
					hosted[op.Device] = append(hosted[op.Device], k)
				}
			}
		case SyncGrad, Precondition, OptStep:
			if h := p.Hosted[op.Device]; len(h) == 0 || h[0] != op.Stage {
				return fmt.Errorf("tail op %s (stage %d) sits on device %d, which hosts %v", op.Label(), op.Stage, op.Device, h)
			}
		}
	}
	if len(device) != p.Replicas*p.Pipelines*s.Stages {
		return fmt.Errorf("%d (replica, pipeline, stage) triples carry work, placement spans %d x %d x %d",
			len(device), p.Replicas, p.Pipelines, s.Stages)
	}
	for d, sets := range hosted {
		slices.SortFunc(sets, func(a, b set) int { return a.pipeline - b.pipeline })
		var want []int
		for _, k := range sets {
			want = append(want, k.stage)
		}
		if !slices.Equal(p.Hosted[d], want) {
			return fmt.Errorf("device %d hosts %v, its forward ops say %v", d, p.Hosted[d], want)
		}
	}
	if len(p.Owners) != s.Stages {
		return fmt.Errorf("owners for %d stages, schedule has %d", len(p.Owners), s.Stages)
	}
	for stage, owners := range p.Owners {
		if len(owners) != p.Replicas*p.Pipelines {
			return fmt.Errorf("stage %d has %d owners, want %d", stage, len(owners), p.Replicas*p.Pipelines)
		}
		for i, o := range owners {
			// Replica-major, pipeline order within a replica.
			if o.Replica != i/p.Pipelines || o.Pipeline != i%p.Pipelines {
				return fmt.Errorf("stage %d owner %d is (replica %d, pipeline %d)", stage, i, o.Replica, o.Pipeline)
			}
			k := set{o.Replica, o.Pipeline, stage}
			if device[k] != o.Device {
				return fmt.Errorf("%+v: owner says device %d, ops say %d", k, o.Device, device[k])
			}
			ms := slices.Sorted(slices.Values(micros[k]))
			for j, m := range ms {
				if m != o.MicroLo+j {
					return fmt.Errorf("%+v: owner range [%d, %d), ops carry micro-batches %v", k, o.MicroLo, o.MicroHi, ms)
				}
			}
			if len(ms) != o.MicroHi-o.MicroLo {
				return fmt.Errorf("%+v: owner range [%d, %d), ops carry micro-batches %v", k, o.MicroLo, o.MicroHi, ms)
			}
		}
		// One replica's ranges tile [0, N).
		for r := 0; r < p.Replicas; r++ {
			mine := slices.Clone(owners[r*p.Pipelines : (r+1)*p.Pipelines])
			slices.SortFunc(mine, func(a, b Owner) int { return a.MicroLo - b.MicroLo })
			next := 0
			for _, o := range mine {
				if o.MicroLo != next {
					return fmt.Errorf("stage %d replica %d: ranges %v do not partition [0, %d)", stage, r, mine, s.MicroBatches)
				}
				next = o.MicroHi
			}
			if next != s.MicroBatches {
				return fmt.Errorf("stage %d replica %d: ranges %v do not partition [0, %d)", stage, r, mine, s.MicroBatches)
			}
		}
	}
	return nil
}

// TestPlacementGenerated: over every family x D x N x W x Steps x with and
// without the precondition op, the placement index is what the ops say, and
// spans what was asked for.
func TestPlacementGenerated(t *testing.T) {
	for _, method := range Methods() {
		for _, d := range []int{2, 4, 8} {
			for _, n := range []int{2, 4, 8} {
				for _, w := range []int{1, 2} {
					for _, steps := range []int{1, 3} {
						for _, prec := range []bool{false, true} {
							name := fmt.Sprintf("%s/D%d/N%d/W%d/steps%d/prec=%v", method, d, n, w, steps, prec)
							s, err := Build(method, BuildConfig{
								Stages: d, MicroBatches: n, Steps: steps, DataParallelWidth: w, Costs: unitCosts(),
								IncludeOptimizerWork: true, IncludePrecondition: prec,
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if err := placementError(s); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if p := s.Placement; p.Replicas != w || p.Pipelines != Pipelines(method) || s.Devices != d*w {
								t.Fatalf("%s: placed %d replicas x %d pipelines on %d devices", name, p.Replicas, p.Pipelines, s.Devices)
							}
							// A second pipeline is a second device for the same
							// stage: what the executor's second module set is for.
							for stage, owners := range s.Placement.Owners {
								for i := 1; i < len(owners); i++ {
									if owners[i].Device == owners[i-1].Device {
										t.Fatalf("%s: stage %d has two owners on device %d", name, stage, owners[i].Device)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	s, err := BuildPipeDream(BuildConfig{Stages: 4, MicroBatches: 8, Costs: unitCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := placementError(s); err != nil {
		t.Fatalf("PipeDream: %v", err)
	}
}

// Indexing the placement is the ownership proof: it refuses a schedule that
// puts two devices on one module set's stage, and Build refuses one whose ops
// name a pipeline the family declares no module set for.
func TestCheckOwnershipRejects(t *testing.T) {
	cfg := BuildConfig{
		Stages: 2, MicroBatches: 4, Steps: 1, IncludeOptimizerWork: true,
		Costs: StageCosts{Forward: 100, Backward: 200, OptStep: 10},
	}
	split, err := BuildChimera(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indexPlacement(split); err != nil {
		t.Fatalf("a built chimera schedule fails its own check: %v", err)
	}
	for _, op := range split.Ops {
		if op.Kind == Backward && op.Pipeline == 1 && op.Stage == 0 {
			op.Device = 1 - op.Device
			break
		}
	}
	if _, err := indexPlacement(split); err == nil || !strings.Contains(err.Error(), "one owner per module set") {
		t.Fatalf("a stage split across two devices passed the check: %v", err)
	}

	stray, err := Build1F1B(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stray.Ops[0].Pipeline = 1
	if _, err := indexPlacement(stray); err == nil || !strings.Contains(err.Error(), "pipeline 1") {
		t.Fatalf("an op on a pipeline with no other work passed the check: %v", err)
	}
	// A family whose builder lays out more pipelines than its row declares.
	builders = append(builders, family{"two-faced", BuildChimera, 1, nil})
	defer func() { builders = builders[:len(builders)-1] }()
	if _, err := Build("two-faced", cfg); err == nil || !strings.Contains(err.Error(), "2 pipelines") {
		t.Fatalf("an up-pipeline schedule passed the check of a single-pipeline family: %v", err)
	}
}

// TestInFlightDepthGenerated holds InFlightDepth — how many micro-batches a
// stage keeps between forward and backward, i.e. the activation sets an
// executor that does not recompute must hold — to the paper's shapes over
// methods × D × N × W × round length: GPipe holds all N at every stage, 1F1B
// min(N, D-s) (never more than GPipe, fewer in total: the memory 1F1B
// exists to save), no owner more than the micro-batches it runs, every
// step of a round the same — except under Chimera, whose greedy builder may
// lay a round's first step out with less in flight than the steady state,
// so there each step is only bounded by the round's depth. The executed half
// is engine.TestSlotHighWaterMatchesInFlightDepth.
func TestInFlightDepthGenerated(t *testing.T) {
	for _, method := range Methods() {
		for _, d := range []int{2, 4, 8} {
			for _, n := range []int{2, 4, 8} {
				for _, w := range []int{1, 2} {
					for _, steps := range []int{1, 3} {
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
						depth := s.InFlightDepth()
						total := 0
						for stage, owners := range s.Placement.Owners {
							for i, o := range owners {
								got := depth[stage][i]
								total += got
								switch {
								case method == "gpipe" && got != n:
									t.Errorf("%s: GPipe stage %d holds %d micro-batches, want N = %d", name, stage, got, n)
								case method == "1f1b" && got != min(n, d-stage):
									t.Errorf("%s: 1F1B stage %d holds %d micro-batches, want min(N, D-s) = %d", name, stage, got, min(n, d-stage))
								case got < 1 || got > o.MicroHi-o.MicroLo:
									t.Errorf("%s: stage %d owner %+v holds %d micro-batches in flight", name, stage, o, got)
								}
							}
						}
						if method == "1f1b" && total >= n*d*w {
							t.Errorf("%s: 1F1B keeps %d activation sets in flight, GPipe %d", name, total, n*d*w)
						}
						for j := 0; j < steps; j++ {
							step := s.inFlightDepth(j)
							for stage := range step {
								for i, got := range step[stage] {
									if got > depth[stage][i] || (s.Placement.Pipelines == 1 && got != depth[stage][i]) {
										t.Errorf("%s: step %d keeps %d in flight at stage %d owner %d, the round %d",
											name, j, got, stage, i, depth[stage][i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
