// Package pipeline is a discrete-event simulator for synchronous
// pipeline-parallel training schedules: GPipe, 1F1B, and Chimera, with
// optional data parallelism. It substitutes for the paper's GPU cluster:
// the same dependency structure (stage order for forwards, reverse order
// for backwards, micro-batch queues per device, bidirectional pipelines for
// Chimera) is executed over modeled durations, producing per-device
// timelines whose gaps are exactly the pipeline bubbles PipeFisher fills.
package pipeline

import (
	"fmt"

	"repro/internal/hardware"
)

// WorkKind enumerates the kinds of work that occupy accelerator time,
// matching the legend of Figures 1, 3 and 4.
type WorkKind int

// Work kinds in figure-legend order.
const (
	Forward WorkKind = iota
	Backward
	Curvature
	Inversion
	Precondition
	SyncGrad
	SyncCurvature
	OptStep
	// Recompute is the activation-recomputation portion of a backward pass
	// (the paper's "R" configuration). Nothing emits it any more: it was
	// never a schedule op (the simulator prices R inside Backward,
	// CostConfig.Recompute), and the executor, which used to record its
	// re-run forwards under it, now keeps activations in slots instead. The
	// constant, its label, glyph and colour stay because benchmark/ names it
	// and timelines written by older builds still render.
	Recompute
	// Degraded is a zero-duration marker event the execution engine emits
	// when a refresh round's K-FAC work fails past its retry budget and the
	// round falls back to stale inverses or unpreconditioned SGD (the
	// paper's §3.1 staleness rule extended across failures). Schedules
	// never contain Degraded ops; only executed timelines do.
	Degraded
	// Membership is a zero-duration marker event the execution engine
	// emits on the first round after an elastic membership change (a rank
	// failure shrank the group, or a supervised rejoin restored it).
	// Schedules never contain Membership ops; only executed timelines do.
	Membership
)

// kindRow is one row of the work-kind vocabulary: everything about a kind
// that is a name or a classification. What a kind *does* stays with its
// interpreters (the simulator's durations, the executor's dispatch).
type kindRow struct {
	name   string // String: legend label, CSV kind column, fault-spec op
	letter byte   // Op.Label's letter
	glyph  byte   // ASCII timeline cell (differs from letter on g, c, o)
	color  string // SVG fill, after the paper's profile figures
	// refresh marks K-FAC refresh work: what fills the bubbles, may serve
	// stale (§3.1), and may degrade instead of aborting once its retries are
	// spent. Precondition is deliberately not refresh work — it anchors the
	// step's gradient collective, so its failure is a gradient failure.
	refresh bool
	// tail marks the step tail: ordered after all of the step's
	// forward/backward and packed refresh work on its device.
	tail bool
	// emitted marks kinds schedules contain; the others only label
	// timeline events.
	emitted bool
}

// kinds declares every WorkKind, indexed by the constant.
var kinds = [...]kindRow{
	Forward:       {"forward", 'F', 'F', "#4c8bf5", false, false, true},       // blue
	Backward:      {"backward", 'B', 'B', "#8ab4f8", false, false, true},      // light blue
	Curvature:     {"curvature", 'C', 'C', "#f5a623", true, false, true},      // orange
	Inversion:     {"inverse", 'I', 'I', "#d0021b", true, false, true},        // red
	Precondition:  {"precondition", 'P', 'P', "#7ed321", false, true, true},   // green
	SyncGrad:      {"sync-grad", 'G', 'g', "#9b9b9b", false, true, true},      // grey
	SyncCurvature: {"sync-curvature", 'S', 'c', "#b8860b", true, false, true}, // dark gold
	OptStep:       {"opt-step", 'O', 'o', "#4a4a4a", false, true, true},       // dark grey
	Recompute:     {"recompute", 'R', 'R', "#bcd4fb", false, false, false},    // pale blue, between forward and backward
	Degraded:      {"degraded", 'D', 'D', "#c71585", false, false, false},     // magenta
	Membership:    {"membership", 'M', 'M', "#ff8c00", false, false, false},   // orange
}

// row returns the kind's row; a value outside the table gets '?' letters,
// black and no flags.
func (k WorkKind) row() kindRow {
	if k < 0 || int(k) >= len(kinds) {
		return kindRow{letter: '?', glyph: '?', color: "#000000"}
	}
	return kinds[k]
}

// Kinds returns every work kind in declaration (legend) order.
func Kinds() []WorkKind {
	ks := make([]WorkKind, len(kinds))
	for i := range ks {
		ks[i] = WorkKind(i)
	}
	return ks
}

// String returns the legend label of the kind.
func (k WorkKind) String() string {
	if r := k.row(); r.name != "" {
		return r.name
	}
	return fmt.Sprintf("WorkKind(%d)", int(k))
}

// Glyph returns the kind's cell in ASCII timelines.
func (k WorkKind) Glyph() byte { return k.row().glyph }

// Color returns the kind's SVG fill colour.
func (k WorkKind) Color() string { return k.row().color }

// IsRefresh reports whether the kind is K-FAC refresh work (curvature,
// inversion, sync-curvature): the side path that fills bubbles, may run
// stale and may degrade.
func (k WorkKind) IsRefresh() bool { return k.row().refresh }

// IsTail reports whether the kind belongs to the step tail (sync-grad,
// precondition, optimizer update).
func (k WorkKind) IsTail() bool { return k.row().tail }

// IsEmitted reports whether schedules contain ops of the kind; Recompute,
// Degraded and Membership only label timeline events.
func (k WorkKind) IsEmitted() bool { return k.row().emitted }

// Op is one unit of device work in a schedule.
type Op struct {
	// ID is the op's index in Schedule.Ops.
	ID int
	// Kind classifies the work.
	Kind WorkKind
	// Device is the executing device (0-based).
	Device int
	// Stage is the pipeline stage the op belongs to (0-based).
	Stage int
	// Replica is the data-parallel replica the op belongs to (0-based;
	// 0 when W = 1). For GPipe/1F1B replica r of stage s runs on device
	// s*W + r; for Chimera replica r is one bidirectional pipeline pair
	// occupying devices [r*D, (r+1)*D). The execution engine uses it to
	// route an op to the replica's parameter copy and to derive the op's
	// global micro-batch index (replica*N + MicroBatch).
	Replica int
	// MicroBatch is the micro-batch index, or -1 when not applicable.
	MicroBatch int
	// Factor is the K-FAC Kronecker-factor index within the op's stage
	// (A factors even, B factors odd, matching StageCosts.InversionUnits
	// order), or -1 when the op is not factor-granular. Only the Curvature
	// and Inversion ops emitted by the schedule package carry a factor.
	Factor int
	// Step is the training-step index the op belongs to (0-based). In a
	// multi-step executable refresh round every op carries the step whose
	// slot it occupies: forwards/backwards/tails their own training step,
	// and K-FAC curvature/inversion ops the step of the refresh window
	// whose bubbles the packer assigned them to — which is how a step's
	// Precondition knows exactly which inversions precede it, and how
	// executed timelines render round-internal step boundaries.
	Step int
	// Generation is the refresh op's statistics-generation lag relative to
	// the window executing it: 0 means the op works on the generation whose
	// statistics the window itself collects (the only value serialized
	// rounds use); g >= 1 marks an op *carried* across g refresh windows
	// under overlapped rounds (schedule.Config.Overlap, depth bounded by
	// schedule.Config.CarryDepth) — refresh work that did not fit its own
	// window's bubbles and executes in a later window's early bubbles
	// instead, reading the pooled statistics of the generation collected g
	// windows earlier. Non-refresh ops always carry 0.
	Generation int
	// Pipeline is 0 for the down pipeline, 1 for Chimera's up pipeline.
	Pipeline int
	// Duration is the modeled execution time.
	Duration hardware.Microseconds
	// Deps lists op IDs that must complete before this op starts.
	Deps []int
}

// Label renders a compact identifier like "F[s2,m1]".
func (o *Op) Label() string {
	return fmt.Sprintf("%c[s%d,m%d]", o.Kind.row().letter, o.Stage, o.MicroBatch)
}

// Schedule is a set of ops with a fixed per-device execution order, as a
// static pipeline schedule prescribes.
type Schedule struct {
	// Name identifies the schedule ("GPipe", "1F1B", "Chimera").
	Name string
	// Devices is the number of devices.
	Devices int
	// Stages is the number of pipeline stages.
	Stages int
	// MicroBatches is N_micro, the micro-batches per device per step.
	MicroBatches int
	// Steps is the number of consecutive training steps in the schedule.
	Steps int
	// Ops holds every op, indexed by ID.
	Ops []*Op
	// Order[d] is the execution order (op IDs) for device d.
	Order [][]int
	// Placement indexes which device hosts which (replica, pipeline, stage)
	// and which micro-batches it owns. Every builder sets it from the ops it
	// laid out (schedule.Executable carries its base schedule's over); it is
	// nil only on schedules assembled by hand.
	Placement *Placement
}

// addOp appends an op, assigns its ID, and registers it in the device
// order.
func (s *Schedule) addOp(op *Op) *Op {
	op.ID = len(s.Ops)
	s.Ops = append(s.Ops, op)
	s.Order[op.Device] = append(s.Order[op.Device], op.ID)
	return op
}

// Validate checks structural invariants: device indices in range, deps
// acyclic with respect to some topological order, and every op present in
// exactly one device order.
func (s *Schedule) Validate() error {
	seen := make(map[int]bool, len(s.Ops))
	for d, order := range s.Order {
		for _, id := range order {
			if id < 0 || id >= len(s.Ops) {
				return fmt.Errorf("pipeline: device %d references unknown op %d", d, id)
			}
			if seen[id] {
				return fmt.Errorf("pipeline: op %d appears in more than one position", id)
			}
			seen[id] = true
			if s.Ops[id].Device != d {
				return fmt.Errorf("pipeline: op %d has device %d but is ordered on device %d", id, s.Ops[id].Device, d)
			}
		}
	}
	if len(seen) != len(s.Ops) {
		return fmt.Errorf("pipeline: %d ops but %d ordered", len(s.Ops), len(seen))
	}
	for _, op := range s.Ops {
		for _, dep := range op.Deps {
			if dep < 0 || dep >= len(s.Ops) {
				return fmt.Errorf("pipeline: op %d has unknown dep %d", op.ID, dep)
			}
		}
		if op.Duration <= 0 {
			return fmt.Errorf("pipeline: op %d has non-positive duration %d", op.ID, op.Duration)
		}
	}
	return nil
}
