package hardware

import "testing"

func TestFitWarmupDropsEarlyRounds(t *testing.T) {
	f := NewFit(2)
	f.BeginRound()
	f.Observe(1, 1000) // warm-up round 1: dropped
	f.BeginRound()
	f.Observe(1, 1000) // warm-up round 2: dropped
	if f.Warm() {
		t.Fatal("fit reported warm during warm-up")
	}
	if f.Count(1) != 0 {
		t.Fatalf("warm-up samples retained: %d", f.Count(1))
	}
	f.BeginRound()
	if !f.Warm() {
		t.Fatal("fit not warm after warm-up rounds")
	}
	f.Observe(1, 10)
	if got := f.Count(1); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if m, ok := f.Estimate(1); !ok || m != 10 {
		t.Fatalf("Estimate = %d,%v; want 10,true — warm-up outliers must not leak into the fit", m, ok)
	}
}

func TestFitMedianRobustToOutliers(t *testing.T) {
	f := NewFit(0)
	f.BeginRound()
	for i := 0; i < 20; i++ {
		f.Observe(7, 100)
	}
	f.Observe(7, 100000) // one preempted op
	m, ok := f.Estimate(7)
	if !ok || m != 100 {
		t.Fatalf("Estimate = %d,%v; want 100,true (median must shrug off the outlier)", m, ok)
	}
}

func TestFitEvenMedianAndFloor(t *testing.T) {
	f := NewFit(0)
	f.BeginRound()
	f.Observe(3, 10)
	f.Observe(3, 20)
	if m, _ := f.Estimate(3); m != 15 {
		t.Fatalf("even-count median = %d, want 15", m)
	}
	if _, ok := f.Estimate(99); ok {
		t.Fatal("Estimate reported ok for a class with no samples")
	}
	f.Observe(4, 0)  // degraded placeholder: ignored
	f.Observe(4, -5) // nonsense: ignored
	if f.Count(4) != 0 {
		t.Fatalf("non-positive durations retained: %d", f.Count(4))
	}
}

func TestFitRingBounded(t *testing.T) {
	f := NewFit(0)
	f.BeginRound()
	for i := 0; i < 2000; i++ {
		f.Observe(1, 50)
	}
	if got := f.Count(1); got != 512 {
		t.Fatalf("ring size = %d, want 512", got)
	}
	// Drift: newer samples overwrite oldest, so the estimate follows.
	for i := 0; i < 600; i++ {
		f.Observe(1, 90)
	}
	if m, _ := f.Estimate(1); m != 90 {
		t.Fatalf("post-drift median = %d, want 90", m)
	}
}
