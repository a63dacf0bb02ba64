package schedule

import (
	"fmt"

	"repro/internal/pipeline"
)

// ValidateDegradedSafety proves a schedule is safe to execute under the
// engine's degraded mode: a refresh op (WorkKind.IsRefresh) that failed
// past its retry budget is treated as complete (its dependents proceed —
// §3.1's staleness rule extended across failures), which is only sound
// when no base-path op consumes a refresh op's *output*. Concretely, no
// non-refresh op may depend on a refresh op — with one deliberate
// exception: Precondition may depend on Inversion, because preconditioning
// tolerates absent or stale inverses by construction (layers without usable
// inverses fall back to the unpreconditioned gradient).
//
// The builders uphold this by shape — refresh ops feed only other refresh
// ops and the steps' Precondition anchors — so a violation means a schedule
// construction bug, caught here once per rebuild rather than as silent
// wrong math under faults.
func ValidateDegradedSafety(s *pipeline.Schedule) error {
	for _, op := range s.Ops {
		if op.Kind.IsRefresh() {
			continue
		}
		for _, dep := range op.Deps {
			dk := s.Ops[dep].Kind
			if !dk.IsRefresh() {
				continue
			}
			if op.Kind == pipeline.Precondition && dk == pipeline.Inversion {
				continue
			}
			return fmt.Errorf("schedule %q not degraded-safe: base-path op %s (%s) depends on refresh op %s (%s); degrading the refresh would leave the dependent reading undelivered output",
				s.Name, op.Label(), op.Kind, s.Ops[dep].Label(), dk)
		}
	}
	return nil
}
