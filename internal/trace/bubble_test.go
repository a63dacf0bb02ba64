package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/schedule"
)

func packedTimelines(t *testing.T, overlap bool) (vanilla, packed *pipeline.Timeline) {
	t.Helper()
	costs := pipeline.StageCosts{Forward: 100, Backward: 200, Precondition: 25, OptStep: 10}
	// Heavy refresh work so a K = 1 window cannot hold it: the overlap
	// schedule carries, the serialized one defers to the pre-tail block.
	for i := 0; i < 4; i++ {
		costs.CurvatureUnits = append(costs.CurvatureUnits, 60)
		costs.CurvaturePerMicroBatch += 60
		costs.InversionUnits = append(costs.InversionUnits, 80)
	}
	base, err := pipeline.BuildGPipe(pipeline.BuildConfig{
		Stages: 4, MicroBatches: 4, Steps: 1, Costs: costs,
		IncludeOptimizerWork: true, IncludePrecondition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vtl, err := pipeline.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Executable(schedule.Config{
		Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs, Overlap: overlap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ptl, err := pipeline.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return vtl, ptl
}

// The three fractions partition each device's window, a vanilla timeline
// has zero refresh-filled time, and packing K-FAC work into the bubbles
// raises the filled fraction above zero.
func TestBubbleUtilizationAccounting(t *testing.T) {
	vanilla, packed := packedTimelines(t, false)
	for _, u := range BubbleUtilization(vanilla) {
		if math.Abs(u.Busy+u.RefreshFilled+u.Idle-1) > 1e-9 {
			t.Fatalf("device %d fractions do not sum to 1: %+v", u.Device, u)
		}
		if u.RefreshFilled != 0 {
			t.Fatalf("vanilla timeline has refresh-filled time on device %d: %+v", u.Device, u)
		}
		if u.FilledFraction() != 0 {
			t.Fatalf("vanilla filled fraction must be 0, got %g", u.FilledFraction())
		}
	}
	var filled bool
	for _, u := range BubbleUtilization(packed) {
		if math.Abs(u.Busy+u.RefreshFilled+u.Idle-1) > 1e-9 {
			t.Fatalf("device %d fractions do not sum to 1: %+v", u.Device, u)
		}
		if u.RefreshFilled > 0 {
			filled = true
			if f := u.FilledFraction(); f <= 0 || f > 1 {
				t.Fatalf("device %d filled fraction %g out of range", u.Device, f)
			}
		}
	}
	if !filled {
		t.Fatal("packed timeline shows no refresh-filled bubble time")
	}
}

// The acceptance property of overlapped rounds at the modeled level: the
// steady-state window's refresh-filled bubble fraction (averaged over
// devices) is at least the serialized window's — the carried work lands in
// bubbles the serialized schedule leaves idle while its spill stretches
// the pre-tail.
func TestBubbleFilledFractionRisesWithOverlap(t *testing.T) {
	_, serial := packedTimelines(t, false)
	_, overlapped := packedTimelines(t, true)
	avg := func(tl *pipeline.Timeline) float64 {
		var f float64
		us := BubbleUtilization(tl)
		for _, u := range us {
			f += u.FilledFraction()
		}
		return f / float64(len(us))
	}
	fs, fo := avg(serial), avg(overlapped)
	if fo < fs {
		t.Fatalf("overlap lowered the refresh-filled bubble fraction: %.3f -> %.3f", fs, fo)
	}
	if overlapped.Makespan > serial.Makespan {
		t.Fatalf("overlapped window longer than serialized: %d vs %d", overlapped.Makespan, serial.Makespan)
	}
}

func TestRenderBubbleSummary(t *testing.T) {
	_, packed := packedTimelines(t, false)
	var sb strings.Builder
	if err := RenderBubbleSummary(&sb, packed); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "bubble utilization") || !strings.Contains(out, "total") {
		t.Fatalf("summary incomplete:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + one row per device + total.
	if want := 2 + packed.Devices + 1; len(lines) != want {
		t.Fatalf("summary has %d lines, want %d:\n%s", len(lines), want, out)
	}

	sb.Reset()
	empty := &pipeline.Timeline{Name: "empty"}
	if err := RenderBubbleSummary(&sb, empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty timeline") {
		t.Fatal("empty timeline not reported")
	}
}
