package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/hardware"
)

// Event is one executed op on the simulated timeline.
type Event struct {
	// Op is the executed op.
	Op *Op
	// Start and End bound the execution interval.
	Start, End hardware.Microseconds
	// Retries counts how many failed attempts preceded this execution.
	// Always 0 in simulated timelines; the execution engine sets it when
	// a side-path op succeeded only after retry-with-backoff.
	Retries int
	// Bytes counts the bytes this op put on the collective transport's
	// wire. Always 0 in simulated timelines and on in-process (loopback)
	// collectives; the execution engine sets it on ops that performed a
	// cross-rank fold over a wire transport.
	Bytes int64
	// Membership is the elastic membership view the op executed under:
	// 0 until the first membership change (always 0 in simulated
	// timelines), incremented by the execution engine at every regroup
	// (rank-failure shrink) and rejoin (width restore).
	Membership int
}

// Duration returns End - Start.
func (e Event) Duration() hardware.Microseconds { return e.End - e.Start }

// Gap is an idle interval on one device — a pipeline bubble.
type Gap struct {
	Device     int
	Start, End hardware.Microseconds
}

// Duration returns End - Start.
func (g Gap) Duration() hardware.Microseconds { return g.End - g.Start }

// Timeline is the result of simulating a schedule: per-device event lists
// plus aggregate statistics.
type Timeline struct {
	// Name is the simulated schedule's name.
	Name string
	// Devices is the device count.
	Devices int
	// Steps is the number of training steps simulated.
	Steps int
	// Events[d] lists device d's events in start order.
	Events [][]Event
	// Makespan is the latest End over all events.
	Makespan hardware.Microseconds
	// StepEnd[k] is the completion time of step k (max End over its ops).
	StepEnd []hardware.Microseconds
	// Parallelism records the intra-op kernel worker budget the executing
	// engine ran with, and OpParallelism the per-device share of it (what
	// one device's kernels could actually recruit). Both are 0 on
	// simulated timelines; recording them on executed timelines keeps
	// real-vs-simulated comparisons honest about the compute resources
	// behind the measured durations.
	Parallelism   int
	OpParallelism int
}

// Run executes a schedule: every device runs its ops in the schedule's
// order, each op starting when the device is free and all dependencies have
// completed. It returns an error if execution stalls (which indicates an
// invalid schedule, e.g. a cross-device ordering cycle).
func Run(s *Schedule) (*Timeline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tl := &Timeline{
		Name:    s.Name,
		Devices: s.Devices,
		Steps:   s.Steps,
		Events:  make([][]Event, s.Devices),
		StepEnd: make([]hardware.Microseconds, s.Steps),
	}
	endTime := make([]hardware.Microseconds, len(s.Ops))
	scheduled := make([]bool, len(s.Ops))
	pointer := make([]int, s.Devices)
	devFree := make([]hardware.Microseconds, s.Devices)
	remaining := len(s.Ops)
	for remaining > 0 {
		progressed := false
		for dev := 0; dev < s.Devices; dev++ {
			for pointer[dev] < len(s.Order[dev]) {
				op := s.Ops[s.Order[dev][pointer[dev]]]
				readyAt := hardware.Microseconds(0)
				blocked := false
				for _, dep := range op.Deps {
					if !scheduled[dep] {
						blocked = true
						break
					}
					if endTime[dep] > readyAt {
						readyAt = endTime[dep]
					}
				}
				if blocked {
					break
				}
				start := devFree[dev]
				if readyAt > start {
					start = readyAt
				}
				end := start + op.Duration
				endTime[op.ID] = end
				scheduled[op.ID] = true
				devFree[dev] = end
				tl.Events[dev] = append(tl.Events[dev], Event{Op: op, Start: start, End: end})
				if end > tl.Makespan {
					tl.Makespan = end
				}
				if op.Step >= 0 && op.Step < s.Steps && end > tl.StepEnd[op.Step] {
					tl.StepEnd[op.Step] = end
				}
				pointer[dev]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("pipeline: simulation stalled with %d ops remaining (ordering deadlock)", remaining)
		}
	}
	return tl, nil
}

// BusyTime returns the total busy time of a device.
func (t *Timeline) BusyTime(device int) hardware.Microseconds {
	var busy hardware.Microseconds
	for _, e := range t.Events[device] {
		busy += e.Duration()
	}
	return busy
}

// Utilization returns the fraction of device-time covered by work over the
// window [0, Makespan] — the quantity the paper reports as "GPU
// utilization" (Appendix B.4: the percentage of time some kernel executes).
func (t *Timeline) Utilization() float64 {
	if t.Makespan == 0 || t.Devices == 0 {
		return 0
	}
	var busy hardware.Microseconds
	for d := 0; d < t.Devices; d++ {
		busy += t.BusyTime(d)
	}
	return float64(busy) / (float64(t.Makespan) * float64(t.Devices))
}

// UtilizationOver computes utilization over an explicit window, e.g. a
// steady-state step rather than the whole run.
func (t *Timeline) UtilizationOver(from, to hardware.Microseconds) float64 {
	if to <= from || t.Devices == 0 {
		return 0
	}
	var busy hardware.Microseconds
	for d := 0; d < t.Devices; d++ {
		for _, e := range t.Events[d] {
			s, en := e.Start, e.End
			if s < from {
				s = from
			}
			if en > to {
				en = to
			}
			if en > s {
				busy += en - s
			}
		}
	}
	return float64(busy) / (float64(to-from) * float64(t.Devices))
}

// Gaps returns the idle intervals of a device within [from, to], in time
// order. These are the bubbles PipeFisher fills.
func (t *Timeline) Gaps(device int, from, to hardware.Microseconds) []Gap {
	events := t.Events[device]
	var gaps []Gap
	cursor := from
	for _, e := range events {
		if e.End <= from {
			continue
		}
		if e.Start >= to {
			break
		}
		if e.Start > cursor {
			gaps = append(gaps, Gap{Device: device, Start: cursor, End: min(e.Start, to)})
		}
		if e.End > cursor {
			cursor = e.End
		}
		if cursor >= to {
			break
		}
	}
	if cursor < to {
		gaps = append(gaps, Gap{Device: device, Start: cursor, End: to})
	}
	return gaps
}

// TotalBubble sums all devices' idle time within [0, Makespan].
func (t *Timeline) TotalBubble() hardware.Microseconds {
	var idle hardware.Microseconds
	for d := 0; d < t.Devices; d++ {
		for _, g := range t.Gaps(d, 0, t.Makespan) {
			idle += g.Duration()
		}
	}
	return idle
}

// StepTime returns the duration of step k (end of step k minus end of step
// k-1, or the start of time for k = 0).
func (t *Timeline) StepTime(k int) hardware.Microseconds {
	if k < 0 || k >= len(t.StepEnd) {
		panic(fmt.Sprintf("pipeline: step %d out of range [0,%d)", k, len(t.StepEnd)))
	}
	if k == 0 {
		return t.StepEnd[0]
	}
	return t.StepEnd[k] - t.StepEnd[k-1]
}

// EventsOfKind returns all events with the given work kind across devices,
// sorted by start time.
func (t *Timeline) EventsOfKind(kind WorkKind) []Event {
	var out []Event
	for d := 0; d < t.Devices; d++ {
		for _, e := range t.Events[d] {
			if e.Op.Kind == kind {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// FindEvent locates the event executing a specific op (by predicate); it
// returns the zero Event and false when no event matches.
func (t *Timeline) FindEvent(match func(*Op) bool) (Event, bool) {
	for d := 0; d < t.Devices; d++ {
		for _, e := range t.Events[d] {
			if match(e.Op) {
				return e, true
			}
		}
	}
	return Event{}, false
}
