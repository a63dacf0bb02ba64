package transport

import (
	"fmt"
	"time"
)

// RankStat is one peer's liveness as observed through the ring's forwarded
// heartbeats (this rank's own entry is synthesized locally).
type RankStat struct {
	Rank        int
	Alive       bool          // at least one heartbeat seen (always true for self)
	Age         time.Duration // time since the last heartbeat (0 for self)
	Epoch       int64         // the rank's round epoch at its last heartbeat
	RoundMicros uint32        // the rank's self-reported last round wall time (µs)
}

// RankStats reports every rank's heartbeat-derived liveness and pace: a
// rank whose RoundMicros is far above its peers' is a straggler. Before the
// first heartbeat interval elapses peers show Alive == false; that means
// "not heard yet", not "dead".
func (r *Ring) RankStats() []RankStat {
	now := time.Now()
	out := make([]RankStat, r.size)
	r.mu.Lock()
	for i := range out {
		h := r.health[i]
		out[i] = RankStat{Rank: i, Alive: !h.last.IsZero(), Epoch: h.epoch, RoundMicros: h.micros}
		if out[i].Alive {
			out[i].Age = now.Sub(h.last)
		}
	}
	r.mu.Unlock()
	out[r.rank] = RankStat{Rank: r.rank, Alive: true, Epoch: r.epoch.Load(), RoundMicros: r.roundUS.Load()}
	return out
}

// ObserveRoundDuration records this rank's last training-round wall time;
// subsequent heartbeats carry it to every peer (see RankStats). The engine
// calls this after each committed round.
func (r *Ring) ObserveRoundDuration(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if us > int64(^uint32(0)) {
		us = int64(^uint32(0))
	}
	r.roundUS.Store(uint32(us))
}

// View returns the membership view number this ring was formed under: 0
// for an initial group, incremented by the caller at every regroup
// (shrink) and rejoin (restore). The hello exchange guarantees all members
// agree on it.
func (r *Ring) View() int64 { return r.view }

// HeartbeatInterval returns the effective heartbeat period (<= 0 when
// liveness is disabled).
func (r *Ring) HeartbeatInterval() time.Duration { return r.hbInterval }

// Reform dials a replacement ring after a membership change: addrs is the
// ORIGINAL full address list, alive the strictly-ascending original ranks
// still participating, and self this member's original rank. Survivors are
// renumbered contiguously (original rank alive[i] becomes rank i of
// len(alive)), which is exactly the re-shard the engine needs: rank g of
// W_g recomputed over the survivors. view tags the new group's membership
// view — every member must pass the same value (validated by the hello
// exchange) and callers increment it once per membership change.
//
// Reform can run while the failed group is still open: each rank
// re-listens on its original address (DialRing releases its listener once
// the group forms, so the address is free) and the new connections replace
// the old ring's. Survivors should close the failed group only AFTER
// Reform returns — a survivor can still owe forwarding writes into the old
// ring even after a peer completed the same collective, and closing early
// turns that peer's in-flight work into a misattributed broken pipe. Once
// the new ring is formed, every survivor has observed the failure and the
// old connections are guaranteed idle.
func Reform(addrs []string, alive []int, self int, view int64, opts RingOptions) (*Ring, error) {
	if len(alive) < 2 {
		return nil, fmt.Errorf("transport: regroup needs at least 2 surviving ranks, got %d (use Loopback for 1)", len(alive))
	}
	sub := make([]string, len(alive))
	newRank := -1
	for i, a := range alive {
		if a < 0 || a >= len(addrs) {
			return nil, fmt.Errorf("transport: surviving rank %d out of range for %d addresses", a, len(addrs))
		}
		if i > 0 && a <= alive[i-1] {
			return nil, fmt.Errorf("transport: surviving ranks must be strictly ascending, got %v", alive)
		}
		if a == self {
			newRank = i
		}
		sub[i] = addrs[a]
	}
	if newRank < 0 {
		return nil, fmt.Errorf("transport: rank %d is not among the survivors %v", self, alive)
	}
	opts.View = view
	return DialRing(sub, newRank, opts)
}
