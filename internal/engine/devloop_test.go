package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// roundSpins counts the waits of rounds' device loops that polled.
var roundSpins atomic.Uint64

func init() { spinHook = func() { roundSpins.Add(1) } }

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// within runs fn and fails the test when it has not returned after d. A
// round whose device loop waits for a worker held by a loop it depends on,
// or whose commit wait ignores the abort, never returns.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// newSpinEngine builds a K-FAC 1F1B engine over two stages — two device
// loops — with a LAMB optimizer, and a batch source for its rounds.
func newSpinEngine(t *testing.T, cfg Config) (*Engine, func() []*data.Batch) {
	t.Helper()
	m, c := newModelAndCorpus(t)
	e, err := NewWithConfig(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableKFAC(faultKFACOpts(), cfg.RefreshSteps); err != nil {
		t.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
	return e, func() []*data.Batch { return roundBatches(c, cfg.RefreshSteps, 8, m.Config.SeqLen) }
}

// trainRounds runs n rounds and returns every step's loss.
func trainRounds(e *Engine, mk func() []*data.Batch, n int) ([]float64, error) {
	var losses []float64
	for i := 0; i < n; i++ {
		res, err := e.TrainRound(mk())
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			losses = append(losses, r.Loss.Total)
		}
	}
	return losses, nil
}

var spinCfg = Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: 2}

// The spin rule: a multi-rank engine never spins, and neither does a
// process whose running device loops plus spinning idle workers outnumber
// GOMAXPROCS.
func TestSpinRule(t *testing.T) {
	for _, tc := range []struct {
		multiRank                bool
		running, spinning, procs int32
		want                     bool
	}{
		{false, 2, 0, 2, true},
		{false, 1, 1, 2, true},
		{false, 1, 0, 1, true},
		{false, 0, 1, 1, true},
		{false, 3, 0, 2, false},
		{false, 2, 1, 2, false},
		{false, 0, 2, 1, false},
		{true, 1, 0, 8, false},
		{true, 4, 0, 8, false},
		{true, 0, 1, 8, false},
	} {
		if got := spinAllowed(tc.multiRank, tc.running, tc.spinning, tc.procs); got != tc.want {
			t.Errorf("spinAllowed(multiRank %v, %d running, %d spinning, %d procs) = %v, want %v",
				tc.multiRank, tc.running, tc.spinning, tc.procs, got, tc.want)
		}
	}
}

// The rule is re-checked at every poll: a wait stops polling as soon as
// the running loops no longer fit the processors, without a further poll.
func TestSpinForStopsWhenRuleStops(t *testing.T) {
	withProcs(t, 64)
	devices.procs.Store(64)
	const crowd = 1 << 20
	calls := 0
	spinFor(false, func() bool {
		if calls++; calls == 3 {
			devices.running.Add(crowd)
		}
		return false
	})
	if calls >= 3 {
		devices.running.Add(-crowd)
	}
	if calls > 3 {
		t.Fatalf("the wait polled %d more times after the spin rule stopped holding", calls-3)
	}
}

// The rule as rounds apply it: with a processor per device loop a
// single-process engine's waits spin; a ring engine's never do, however
// many processors are free; and a single-process engine with more device
// loops than processors does not spin either.
func TestSpinRuleInRounds(t *testing.T) {
	spinsOver := func(t *testing.T, procs int, run func() error) uint64 {
		t.Helper()
		withProcs(t, procs)
		before := roundSpins.Load()
		within(t, time.Minute, "rounds", run)
		return roundSpins.Load() - before
	}
	loopback := func(t *testing.T) func() error {
		e, mk := newSpinEngine(t, spinCfg)
		return func() error { _, err := trainRounds(e, mk, 3); return err }
	}
	t.Run("loops fit", func(t *testing.T) {
		if n := spinsOver(t, 2, loopback(t)); n == 0 {
			t.Fatal("no wait spun with a processor for every device loop")
		}
	})
	t.Run("more loops than procs", func(t *testing.T) {
		if n := spinsOver(t, 1, loopback(t)); n != 0 {
			t.Fatalf("%d waits spun with two device loops on one processor", n)
		}
	})
	t.Run("multi-rank", func(t *testing.T) {
		n := spinsOver(t, 8, func() error {
			rings, err := transport.NewLocalRing(2, 0)
			if err != nil {
				return err
			}
			defer func() {
				for _, r := range rings {
					r.Close()
				}
			}()
			errs := make([]error, len(rings))
			var wg sync.WaitGroup
			for rank, g := range rings {
				m, c := newModelAndCorpus(t)
				wg.Add(1)
				go func() {
					defer wg.Done()
					cfg := spinCfg
					cfg.Transport = g
					e, err := NewWithConfig(m, cfg)
					if err != nil {
						errs[rank] = err
						return
					}
					opt := optim.NewLAMB(m.Params(), 0.01)
					e.SetOptimizer(func(step int) error { opt.Step(5e-3); return nil })
					_, errs[rank] = trainRounds(e, func() []*data.Batch {
						return roundBatches(c, cfg.RefreshSteps, 8, m.Config.SeqLen)
					}, 3)
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		if n != 0 {
			t.Fatalf("%d waits of ring engines spun", n)
		}
	})
}

// Three engines run rounds at once on two processors — six device loops on
// one process-wide pool. A loop queued behind another loop would deadlock
// (a round's loops wait on each other); all three must finish, and each
// must train exactly as it does alone.
func TestConcurrentEnginesShareDevicePool(t *testing.T) {
	withProcs(t, 2)
	e, mk := newSpinEngine(t, spinCfg)
	want, err := trainRounds(e, mk, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, 3)
	engines := make([]*Engine, len(got))
	batches := make([]func() []*data.Batch, len(got))
	for i := range engines {
		engines[i], batches[i] = newSpinEngine(t, spinCfg)
	}
	within(t, time.Minute, "three concurrent engines", func() error {
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = trainRounds(engines[i], batches[i], 3)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	for i, losses := range got {
		if fmt.Sprint(losses) != fmt.Sprint(want) {
			t.Fatalf("engine %d losses %v, alone %v", i, losses, want)
		}
	}
}

// An op that stalls past OpTimeout while a consumer spins still ends in the
// watchdog-attributed abort. Device 1's step-0 OptStep is stalled, so
// device 0 — not the last to arrive — holds its step-1 forward on the
// commit: it polls, then parks; the watchdog's abort must release it, and
// the pooled buffers return to their steady-state count.
func TestWatchdogAbortWhileConsumerSpins(t *testing.T) {
	withProcs(t, max(2, runtime.GOMAXPROCS(0)))
	cfg := spinCfg
	// Two clean rounds commit steps 0..3 first; the stall hits the third
	// round's first step.
	cfg.FaultPlan = mustParsePlan(t, "stall:step=4,dev=1,op=opt-step,delay=5s,count=1")
	cfg.OpTimeout = 150 * time.Millisecond
	e, mk := newSpinEngine(t, cfg)
	tensor.SetPoolAudit(true)
	defer tensor.SetPoolAudit(false)
	if _, err := trainRounds(e, mk, 2); err != nil {
		t.Fatal(err)
	}
	base := tensor.PoolLive()
	spins := roundSpins.Load()
	start := time.Now()
	within(t, time.Minute, "stalled round", func() error {
		_, err := e.TrainRound(mk())
		switch {
		case err == nil:
			return errors.New("stalled round did not abort")
		case !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "device 1"):
			return fmt.Errorf("stall not attributed to device 1 by the watchdog: %w", err)
		}
		return nil
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watchdog abort took %v: a wait did not unpark", elapsed)
	}
	if roundSpins.Load() == spins {
		t.Fatal("no wait of the stalled round spun")
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("PoolLive %d after the watchdog abort, steady state %d", live, base)
	}
	if _, err := trainRounds(e, mk, 1); err != nil {
		t.Fatalf("engine unusable after the watchdog abort: %v", err)
	}
	if live := tensor.PoolLive(); live != base {
		t.Fatalf("PoolLive %d after the recovery round, steady state %d", live, base)
	}
}

// The fault and pool-audit suites, re-run with a processor for every device
// loop. Their W = 2 and Chimera engines have four devices: on a host with
// fewer cores the plain runs never spin, and the abort paths would go
// untested against the active wait.
func TestFaultSuitesWithSpinningWaits(t *testing.T) {
	withProcs(t, max(8, runtime.GOMAXPROCS(0)))
	before := roundSpins.Load()
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"AbortAttributionEveryOpKind", TestAbortAttributionEveryOpKind},
		{"InjectedFaultNamesInjectionPoint", TestInjectedFaultNamesInjectionPoint},
		{"DegradedRefreshServesStaleAndRecovers", TestDegradedRefreshServesStaleAndRecovers},
		{"TransientFaultRetriesAndRecords", TestTransientFaultRetriesAndRecords},
		{"WatchdogConvertsStallIntoAttributedAbort", TestWatchdogConvertsStallIntoAttributedAbort},
		{"WatchdogIdleWhileAwaitingCommit", TestWatchdogIdleWhileAwaitingCommit},
		{"CorruptionCaughtBeforeCommit", TestCorruptionCaughtBeforeCommit},
		{"CheckpointReplayBitIdentity", TestCheckpointReplayBitIdentity},
		{"PoolAuditNoLeakOnAbortAnywhere", TestPoolAuditNoLeakOnAbortAnywhere},
		{"CommitPendingErrorSurfacesAfterCommit", TestCommitPendingErrorSurfacesAfterCommit},
	} {
		t.Run(tc.name, tc.test)
	}
	if roundSpins.Load() == before {
		t.Fatal("no wait spun")
	}
}
