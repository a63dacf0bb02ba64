package schedule

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestRefreshAndTailSetsAgree: the refresh set and the step-tail set are
// read from pipeline's kind table by three packages — the degraded-safety
// proof here, trace's bubble accounting and this package's step-tail
// ordering — so over generated executables the three must tell one story:
// every schedule is degraded-safe, the refresh-filled time trace reports on
// the simulated timeline is exactly the duration of the refresh ops, and
// every tail op follows all of its step's other ops on its device.
func TestRefreshAndTailSetsAgree(t *testing.T) {
	var refreshOps int
	for _, shape := range matrixShapes[:2] { // exec (fits), spill (carries)
		for _, method := range pipeline.Methods() {
			for _, d := range []int{2, 4} {
				for _, w := range []int{1, 2} {
					for _, overlap := range []bool{false, true} {
						// Inversion parallelism at W 2 is what emits sync-curvature.
						cfg := Config{
							Method: method, Stages: d, MicroBatches: 4, RefreshSteps: 2,
							Costs: shape.costs(t, w, w > 1), DataParallelWidth: w,
							InversionParallel: w > 1, Overlap: overlap,
						}
						name := fmt.Sprintf("%s %s D%d W%d overlap=%v", shape.name, method, d, w, overlap)
						s, err := Executable(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := ValidateDegradedSafety(s); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						tl, err := pipeline.Run(s)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						refresh := make([]float64, s.Devices)
						for _, op := range s.Ops {
							if op.Kind.IsRefresh() {
								refresh[op.Device] += float64(op.Duration)
								refreshOps++
							}
						}
						for _, u := range trace.BubbleUtilization(tl) {
							got := u.RefreshFilled * float64(tl.Makespan)
							if math.Abs(got-refresh[u.Device]) > 1e-6*float64(tl.Makespan) {
								t.Errorf("%s: device %d refresh-filled %.3f µs, refresh ops last %.0f µs",
									name, u.Device, got, refresh[u.Device])
							}
						}
						checkTailsLast(t, name, s)
					}
				}
			}
		}
	}
	if refreshOps == 0 {
		t.Fatal("the matrix emitted no refresh ops")
	}
}

// checkTailsLast asserts that on every device each tail op comes after
// every non-tail op of its step.
func checkTailsLast(t *testing.T, name string, s *pipeline.Schedule) {
	t.Helper()
	for d, order := range s.Order {
		lastHead := map[int]int{}
		for pos, id := range order {
			if op := s.Ops[id]; !op.Kind.IsTail() {
				lastHead[op.Step] = pos
			}
		}
		for pos, id := range order {
			op := s.Ops[id]
			if h, ok := lastHead[op.Step]; op.Kind.IsTail() && ok && pos < h {
				t.Errorf("%s: device %d runs tail op %s (step %d) at %d, before its step's %s at %d",
					name, d, op.Label(), op.Step, pos, s.Ops[order[h]].Label(), h)
				return
			}
		}
	}
}
