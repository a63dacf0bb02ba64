package transport

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestDialRingAcceptTimeout: a group that never fully forms must fail fast
// with an attributed error on every started rank, not hang in Accept. Rank
// 0 of 3 successfully dials rank 1 but rank 2 never starts, so rank 0 dies
// on the accept path and rank 1 on the dial path.
func TestDialRingAcceptTimeout(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "r0.sock"),
		"unix:" + filepath.Join(dir, "r1.sock"),
		"unix:" + filepath.Join(dir, "r2.sock"),
	}
	opts := RingOptions{DialTimeout: 300 * time.Millisecond}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := DialRing(addrs, i, opts)
			if r != nil {
				r.Close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialRing took %v; the accept path is not honoring DialTimeout", elapsed)
	}
	if errs[0] == nil || !contains(errs[0].Error(), "waiting for rank 2") {
		t.Fatalf("rank 0 error = %v, want attributed accept timeout naming rank 2", errs[0])
	}
	if errs[1] == nil {
		t.Fatalf("rank 1 unexpectedly formed a ring")
	}
}

// TestDialRingHelloTimeout: a peer that connects but never sends its hello
// must not hang the handshake — the read side of the hello exchange runs
// under the dial deadline too.
func TestDialRingHelloTimeout(t *testing.T) {
	dir := t.TempDir()
	a0 := filepath.Join(dir, "r0.sock")
	a1 := filepath.Join(dir, "r1.sock")
	addrs := []string{"unix:" + a0, "unix:" + a1}

	ln1, err := net.Listen("unix", a1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Impersonate rank 1: accept rank 0's dial, connect back to rank
		// 0's listener, then go silent — no hello, no close.
		c, err := ln1.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var c2 net.Conn
		for i := 0; i < 100; i++ {
			if c2, err = net.Dial("unix", a0); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if c2 != nil {
			defer c2.Close()
		}
		<-done
	}()

	start := time.Now()
	r, err := DialRing(addrs, 0, RingOptions{DialTimeout: 300 * time.Millisecond})
	if r != nil {
		r.Close()
		t.Fatal("DialRing succeeded against a mute peer")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("DialRing hung %v on a mute peer", time.Since(start))
	}
	if err == nil || !contains(err.Error(), "never spoke") {
		t.Fatalf("error = %v, want attributed hello timeout", err)
	}
}

// TestRingAbortWhileClosing: Abort's best-effort poison-frame send racing
// Close's connection teardown must be silent and race-free (regression for
// the Close/Abort hardening; meaningful under -race).
func TestRingAbortWhileClosing(t *testing.T) {
	rings, err := NewLocalRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range rings {
		wg.Add(1)
		go func(r *Ring) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Abort(errors.New("chaos"))
				}
			}
		}(r)
	}
	time.Sleep(10 * time.Millisecond)
	closeAll(t, rings)
	close(stop)
	wg.Wait()
	// After Close, Abort must remain a silent no-op.
	rings[0].Abort(errors.New("late abort"))
	rings[1].Abort(errors.New("late abort"))
}

// TestPopFutureEpoch: a queued frame from an epoch ahead of the caller's
// is a protocol error (some rank ran BeginRound more often), surfaced with
// both epochs attributed.
func TestPopFutureEpoch(t *testing.T) {
	rings, err := NewLocalRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	r := rings[0]
	f := r.getFrame(4)
	f.kind, f.epoch = frameData, 5
	r.mu.Lock()
	r.queues["x"] = []*frame{f}
	r.mu.Unlock()
	_, err = r.pop("x", 2)
	if err == nil || !contains(err.Error(), "future epoch 5 (local 2)") {
		t.Fatalf("pop error = %v, want future-epoch protocol error", err)
	}
}

// TestPopStaleFrameRecycled: stale frames (aborted-round stragglers) are
// discarded on dequeue and returned, payload included, to the recycle pool
// — the replay must not leak a buffer per straggler.
func TestPopStaleFrameRecycled(t *testing.T) {
	rings, err := NewLocalRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	r := rings[0]
	stale, fresh := r.getFrame(8), r.getFrame(8)
	stale.kind, stale.epoch = frameData, 1
	fresh.kind, fresh.epoch = frameData, 2
	staleCap := cap(stale.payload)
	r.mu.Lock()
	r.queues["x"] = []*frame{stale, fresh}
	r.mu.Unlock()
	f, err := r.pop("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if f != fresh {
		t.Fatal("pop did not deliver the current-epoch frame")
	}
	// putFrame resets the frame before it pools it, so the hand-off shows
	// whether or not the pool keeps the frame (the race detector drops a
	// share of Puts).
	if stale.epoch != 0 || stale.kind != 0 || len(stale.payload) != 0 || cap(stale.payload) != staleCap {
		t.Fatalf("stale frame (epoch %d, kind %d, payload %d/%d) was not returned to the pool with its payload",
			stale.epoch, stale.kind, len(stale.payload), cap(stale.payload))
	}
}

// TestRingFailurePropagationAndReform is the transport half of the elastic
// membership story: rank 2 of 3 dies mid-life, both survivors' collectives
// fail with a RankFailure attributing rank 2 (EOF on the direct link for
// rank 0, the propagated failure frame for rank 1), and the survivors
// reform a 2-rank ring on the same addresses and complete a collective
// with the deterministic fold intact.
func TestRingFailurePropagationAndReform(t *testing.T) {
	rings, addrs, cleanup, err := NewLocalRingOpts(3, RingOptions{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	// Survivors enter a collective that can never complete without rank 2.
	errC := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			dst := make([]float64, 64)
			_, err := rings[i].AllReduce("g", dst, nil, [][]float64{fill(64, float64(i))})
			errC <- err
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	rings[2].Close() // rank 2 "dies": its connections drop

	for i := 0; i < 2; i++ {
		select {
		case err := <-errC:
			rf, ok := AsRankFailure(err)
			if !ok {
				t.Fatalf("survivor error = %v, want RankFailure", err)
			}
			if rf.Rank != 2 {
				t.Fatalf("RankFailure.Rank = %d, want 2 (got: %v)", rf.Rank, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("survivor still blocked after rank death")
		}
	}
	// The failure is sticky: new rounds on the broken group fail too.
	rings[0].BeginRound()
	if _, err := rings[0].AllReduce("g2", make([]float64, 4), nil, nil); err == nil {
		t.Fatal("collective on a failed group succeeded")
	}

	// Regroup: close the broken rings, re-dial a 2-rank ring on the
	// original addresses under membership view 1.
	rings[0].Close()
	rings[1].Close()
	survivors := []int{0, 1}
	nr := make([]*Ring, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, orig := range survivors {
		wg.Add(1)
		go func(i, orig int) {
			defer wg.Done()
			nr[i], errs[i] = Reform(addrs, survivors, orig, 1, RingOptions{})
		}(i, orig)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Reform rank %d: %v", i, err)
		}
	}
	defer closeAll(t, nr)
	for i, r := range nr {
		if r.Rank() != i || r.Size() != 2 || r.View() != 1 {
			t.Fatalf("reformed ring %d: rank %d size %d view %d", i, r.Rank(), r.Size(), r.View())
		}
	}
	parts := [][][]float64{{fill(100, 3)}, {fill(100, 7)}}
	want := refFold(100, nil, parts)
	out := make([][]float64, 2)
	for i := range nr {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = make([]float64, 100)
			_, errs[i] = nr[i].AllReduce("h", out[i], nil, parts[i])
		}(i)
	}
	wg.Wait()
	for i := range nr {
		if errs[i] != nil {
			t.Fatalf("reformed AllReduce rank %d: %v", i, errs[i])
		}
		if !bitEqual(out[i], want) {
			t.Fatalf("reformed AllReduce rank %d: fold mismatch", i)
		}
	}
}

// TestReformViewMismatch: members joining under different membership views
// must fail the hello exchange, not form a cross-view group.
func TestReformViewMismatch(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "r0.sock"),
		"unix:" + filepath.Join(dir, "r1.sock"),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := DialRing(addrs, i, RingOptions{View: int64(1 + i), DialTimeout: 2 * time.Second})
			if r != nil {
				r.Close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !contains(err.Error(), "membership view mismatch") {
			t.Fatalf("rank %d error = %v, want membership view mismatch", i, err)
		}
	}
}

// TestRingHeartbeatStats: heartbeats carry liveness and the self-reported
// round pace to every rank, surfaced through RankStats.
func TestRingHeartbeatStats(t *testing.T) {
	rings, _, cleanup, err := NewLocalRingOpts(3, RingOptions{HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	defer closeAll(t, rings)
	rings[1].ObserveRoundDuration(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := rings[0].RankStats()
		if !stats[0].Alive {
			t.Fatal("own rank not alive in RankStats")
		}
		if stats[1].Alive && stats[2].Alive && stats[1].RoundMicros == 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat stats never converged: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingCollectiveTimeout: a frame that never arrives — the peer process
// is alive (heartbeats flow) but stuck — fails the collective after the
// configured timeout with a RankFailure attributed to the stalest peer.
func TestRingCollectiveTimeout(t *testing.T) {
	rings, _, cleanup, err := NewLocalRingOpts(2, RingOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		CollectiveTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	defer closeAll(t, rings)
	// Rank 1 waits for the reduce pass; rank 0 never starts the collective.
	dst := make([]float64, 16)
	start := time.Now()
	_, err = rings[1].AllReduce("g", dst, nil, [][]float64{fill(16, 1)})
	rf, ok := AsRankFailure(err)
	if !ok || !contains(err.Error(), "collective timeout") {
		t.Fatalf("error = %v, want collective-timeout RankFailure", err)
	}
	if rf.Rank != 0 {
		t.Fatalf("RankFailure.Rank = %d, want 0", rf.Rank)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("collective timeout took %v", elapsed)
	}
	// Sticky: the next collective on this group fails immediately.
	if _, err := rings[1].AllReduce("g2", dst, nil, nil); err == nil {
		t.Fatal("collective after rank failure succeeded")
	}
}

// TestRankFailureFormatting pins the error surface the engine and CLIs
// match on.
func TestRankFailureFormatting(t *testing.T) {
	rf := &RankFailure{Rank: 2, Cause: errors.New("boom")}
	if got := rf.Error(); got != "transport: rank 2 failed: boom" {
		t.Fatalf("Error() = %q", got)
	}
	wrapped := fmt.Errorf("round 3: %w", rf)
	got, ok := AsRankFailure(wrapped)
	if !ok || got.Rank != 2 {
		t.Fatalf("AsRankFailure(wrapped) = %v, %v", got, ok)
	}
	if _, ok := AsRankFailure(errors.New("plain")); ok {
		t.Fatal("AsRankFailure matched a plain error")
	}
	if (&RankFailure{Rank: -1, Cause: errors.New("x")}).Error() != "transport: rank failure: x" {
		t.Fatal("unattributed RankFailure formatting changed")
	}
}
