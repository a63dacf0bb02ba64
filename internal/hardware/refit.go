package hardware

import "sort"

// Fit accumulates measured durations of executed work, grouped by an
// opaque integer class (callers key it however they slice their work —
// the schedule layer uses op kinds), and produces robust per-class
// estimates for refitting a cost model against the machine the work
// actually ran on: the closed-loop counterpart of the roofline model
// above, which predicts; Fit measures.
//
// Robustness choices, matched to executed-timeline data:
//
//   - The first WarmupRounds observation rounds are dropped entirely:
//     cold caches, first-touch allocations and scheduler ramp-up make
//     early rounds unrepresentative.
//   - Estimates are medians, not means: a single preempted op (shared
//     CI runners) or a retried/degraded op's tail must not drag the
//     model. Callers additionally exclude retried and degraded events
//     before observing — the median guards what filtering misses.
//   - Samples live in a bounded ring per class (maxSamples, oldest
//     overwritten): the fit tracks drift instead of averaging over the
//     whole history.
//
// Fit is not safe for concurrent use; drive it from the loop that owns
// the engine.
type Fit struct {
	warmup     int
	rounds     int
	maxSamples int
	samples    map[int][]float64
	next       map[int]int // ring write position per class
	full       map[int]bool
	// scale inflates a class's Estimate by an externally observed factor —
	// the straggler headroom: heartbeat-derived per-rank slowness makes a
	// peer's collectives arrive late in a way this rank's own measured
	// durations cannot see, so the tuner prices synchronization classes up
	// by the group's slowest/own round-time ratio (SetScale).
	scale map[int]float64
}

// NewFit creates a Fit that ignores the first warmupRounds rounds.
func NewFit(warmupRounds int) *Fit {
	if warmupRounds < 0 {
		warmupRounds = 0
	}
	return &Fit{
		warmup:     warmupRounds,
		maxSamples: 512,
		samples:    make(map[int][]float64),
		next:       make(map[int]int),
		full:       make(map[int]bool),
		scale:      make(map[int]float64),
	}
}

// SetScale installs (or, at factor <= 1, clears) a multiplicative
// inflation on a class's Estimate. The samples themselves stay raw — the
// scale reflects a condition external to this rank's measurements (a
// straggling peer) that can lift or clear between rounds.
func (f *Fit) SetScale(class int, factor float64) {
	if factor <= 1 {
		delete(f.scale, class)
		return
	}
	f.scale[class] = factor
}

// Scale reports the active inflation factor for a class (1 when none).
func (f *Fit) Scale(class int) float64 {
	if s, ok := f.scale[class]; ok {
		return s
	}
	return 1
}

// BeginRound marks the start of one observation round (one executed
// timeline). Observations before the warm-up rounds have passed are
// discarded.
func (f *Fit) BeginRound() { f.rounds++ }

// Rounds reports how many rounds have begun, including warm-up.
func (f *Fit) Rounds() int { return f.rounds }

// Warm reports whether the warm-up window has passed and observations are
// being recorded.
func (f *Fit) Warm() bool { return f.rounds > f.warmup }

// Observe records one measured duration for a class. Ignored during
// warm-up and for non-positive durations (a zero-duration event is a
// degraded placeholder, not a measurement).
func (f *Fit) Observe(class int, d Microseconds) {
	if !f.Warm() || d <= 0 {
		return
	}
	s := f.samples[class]
	if len(s) < f.maxSamples {
		f.samples[class] = append(s, float64(d))
		return
	}
	s[f.next[class]] = float64(d)
	f.next[class] = (f.next[class] + 1) % f.maxSamples
	f.full[class] = true
}

// Count returns the number of retained samples for a class.
func (f *Fit) Count(class int) int { return len(f.samples[class]) }

// Estimate returns the median measured duration of a class (minimum 1 —
// cost models treat 0 as absent) and whether any samples exist.
func (f *Fit) Estimate(class int) (Microseconds, bool) {
	s := f.samples[class]
	if len(s) == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), s...)
	sort.Float64s(tmp)
	var med float64
	if n := len(tmp); n%2 == 1 {
		med = tmp[n/2]
	} else {
		med = (tmp[n/2-1] + tmp[n/2]) / 2
	}
	if med < 1 {
		med = 1
	}
	if s, ok := f.scale[class]; ok {
		med *= s
	}
	return Microseconds(med + 0.5), true
}
