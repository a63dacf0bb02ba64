package pipeline

import (
	"fmt"
	"slices"
)

// Owner is one device's share of a pipeline stage: the device, the module
// set — (Replica, Pipeline) — whose copy of the stage it drives, and the
// replica-local micro-batches [MicroLo, MicroHi) it runs through it.
type Owner struct {
	Device, Replica, Pipeline int
	MicroLo, MicroHi          int
}

// Placement says who hosts what in a built schedule — the one fact the
// builders, the PipeFisher packer and the executor must agree on (§3(i): a
// device does the K-FAC work "for the layers in the assigned pipeline
// stage"). It is read off the schedule's own forward and backward ops, so it
// cannot disagree with them; nothing outside this package derives a device
// from a method name or a formula.
type Placement struct {
	// Replicas and Pipelines span the module sets in use: ops carry
	// Replica in [0, Replicas) and Pipeline in [0, Pipelines).
	Replicas, Pipelines int
	// Hosted[d] lists the stages device d hosts, in pipeline order: one
	// under GPipe/1F1B, Chimera's down stage then its up stage.
	Hosted [][]int
	// Owners[s] lists the devices that run stage s, replica-major and in
	// pipeline order within a replica. The ranges of one replica's owners
	// partition [0, MicroBatches).
	Owners [][]Owner
}

// indexPlacement reads the schedule's placement off its forward and backward
// ops. Building it is the proof of the ownership contract the executor runs
// without locks on: every (replica, pipeline, stage) in use — one stage of
// one module set — has all its ops on ONE device, so one goroutine drives
// those modules for the whole round.
func indexPlacement(s *Schedule) (*Placement, error) {
	p := &Placement{Hosted: make([][]int, s.Devices), Owners: make([][]Owner, s.Stages)}
	sets := make(map[[3]int]*Owner) // (replica, pipeline, stage)
	for _, op := range s.Ops {
		if op.Kind != Forward && op.Kind != Backward {
			continue
		}
		if op.Replica < 0 || op.Pipeline < 0 || op.Stage < 0 || op.Stage >= s.Stages || op.MicroBatch < 0 {
			return nil, fmt.Errorf("pipeline: op %s names (replica %d, pipeline %d) stage %d of %d",
				op.Label(), op.Replica, op.Pipeline, op.Stage, s.Stages)
		}
		p.Replicas = max(p.Replicas, op.Replica+1)
		p.Pipelines = max(p.Pipelines, op.Pipeline+1)
		key := [3]int{op.Replica, op.Pipeline, op.Stage}
		switch o := sets[key]; {
		case o == nil:
			sets[key] = &Owner{Device: op.Device, Replica: op.Replica, Pipeline: op.Pipeline,
				MicroLo: op.MicroBatch, MicroHi: op.MicroBatch + 1}
		case o.Device != op.Device:
			return nil, fmt.Errorf("pipeline: stage %d of module set (replica %d, pipeline %d) is scheduled on devices %d and %d; the executor needs one owner per module set",
				op.Stage, op.Replica, op.Pipeline, o.Device, op.Device)
		default:
			o.MicroLo = min(o.MicroLo, op.MicroBatch)
			o.MicroHi = max(o.MicroHi, op.MicroBatch+1)
		}
	}
	for r := 0; r < p.Replicas; r++ {
		for pipe := 0; pipe < p.Pipelines; pipe++ {
			for stage := 0; stage < s.Stages; stage++ {
				o := sets[[3]int{r, pipe, stage}]
				if o == nil {
					return nil, fmt.Errorf("pipeline: stage %d of module set (replica %d, pipeline %d) has no forward or backward op",
						stage, r, pipe)
				}
				p.Owners[stage] = append(p.Owners[stage], *o)
				if !slices.Contains(p.Hosted[o.Device], stage) {
					p.Hosted[o.Device] = append(p.Hosted[o.Device], stage)
				}
			}
		}
	}
	return p, nil
}

// seal is the last step of every builder: the structural checks, then the
// placement index.
func (s *Schedule) seal() (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p, err := indexPlacement(s)
	if err != nil {
		return nil, err
	}
	s.Placement = p
	return s, nil
}

// InFlightDepth reports, parallel to Placement.Owners, how many micro-batches
// each owner keeps in flight at its stage: the most forwards without their
// backward at any point of the device's order. It is the number of
// activation sets the stage must hold when backward does not recompute —
// N under GPipe, min(N, D-s) under 1F1B — the executed counterpart of the
// memory model's Act = N·Mact term. The count returns to zero at every step
// boundary (a step's backwards all precede its optimizer tail), so it does
// not depend on the round length.
func (s *Schedule) InFlightDepth() [][]int { return s.inFlightDepth(-1) }

// inFlightDepth is InFlightDepth restricted to the ops of one step (every
// step when step < 0).
func (s *Schedule) inFlightDepth(step int) [][]int {
	type set struct{ replica, pipeline, stage int }
	held, peak := make(map[set]int), make(map[set]int)
	for _, order := range s.Order {
		for _, id := range order {
			op := s.Ops[id]
			if step >= 0 && op.Step != step {
				continue
			}
			k := set{op.Replica, op.Pipeline, op.Stage}
			switch op.Kind {
			case Forward:
				held[k]++
				peak[k] = max(peak[k], held[k])
			case Backward:
				held[k]--
			}
		}
	}
	depth := make([][]int, len(s.Placement.Owners))
	for stage, owners := range s.Placement.Owners {
		depth[stage] = make([]int, len(owners))
		for i, o := range owners {
			depth[stage][i] = peak[set{o.Replica, o.Pipeline, stage}]
		}
	}
	return depth
}
