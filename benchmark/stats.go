package main

import (
	"math"
	"sort"
)

// minOf returns the smallest of xs; 0 for no samples.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is not modified. 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the sample-count rule for reporting a tail: the highest
// of p90/p95/p99/p99.9 that still has at least ten samples beyond it, or 50
// when even p90 does not (fewer than 100 samples).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, t := range []struct {
		p    float64
		need int // samples for ten to lie beyond p
	}{{90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if n >= t.need {
			best = t.p
		}
	}
	return best
}

// stepsToLoss returns the step at which a held-out loss curve — loss[i]
// evaluated after steps[i] training steps, steps ascending — comes down to
// target and stays there until the end of the curve, interpolated linearly
// between the two evaluations around the crossing, and whether there is one;
// when the curve ends above the target, the count is its last step. "Stays",
// not "first touches": a curve that dips under the target and comes back
// has not reached it. Never less than one step.
func stepsToLoss(steps []int, loss []float64, target float64) (float64, bool) {
	i := len(loss) - 1
	if loss[i] > target {
		return float64(steps[i]), false
	}
	for i > 0 && loss[i-1] <= target {
		i--
	}
	if i == 0 {
		return math.Max(1, float64(steps[0])), true
	}
	frac := (loss[i-1] - target) / (loss[i-1] - loss[i])
	return math.Max(1, float64(steps[i-1])+frac*float64(steps[i]-steps[i-1])), true
}

// pairRatioMedian is the median over block pairs of num[i]/den[i]: each
// ratio compares two blocks that ran back to back, so slow drift of the
// host cancels inside a pair instead of landing on one arm.
func pairRatioMedian(num, den []float64) float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	r := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] > 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return median(r)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread the benchmark contract judges by. Quartiles
// follow Python's statistics.quantiles(n=4) (exclusive method).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
