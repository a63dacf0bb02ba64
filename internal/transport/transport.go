// Package transport provides the collective-communication substrate behind
// the engine's data-parallel axis: reduce-scatter, all-gather, all-reduce
// and broadcast over named float64 buffers, with a deterministic fold order
// that makes the reduced values bit-identical no matter which transport
// carries them.
//
// # Fold order
//
// Every reducing collective folds its inputs in one fixed sequence: the
// base vector first (significant on rank 0 only), then rank 0's parts in
// ascending part order, then rank 1's parts, and so on through rank
// Size()-1. Each element of the result is produced by exactly that chain of
// float64 additions — no tree reductions, no per-rank reordering — so a
// reduction over W ranks with k parts each is bit-identical to the same
// W*k parts folded on a single rank in ascending global order. The engine
// maps micro-batch gradient deltas onto parts with rank r holding the
// globally contiguous micro-batches [r*k, (r+1)*k), which is how the
// ascending-global-micro-batch determinism contract of the in-process
// collective survives the move onto a wire unchanged.
//
// # Buffer ownership
//
// Collectives only read base and parts during the call and never retain
// them; dst is fully written before a call returns successfully. Callers
// keep ownership of every buffer (pooled matrices may be passed directly
// and recycled as soon as the call returns). Implementations must not
// alias dst with any part (base may alias dst).
//
// # Names and concurrency
//
// Collectives rendezvous by name. Calls with *different* names may run
// concurrently on one group (different pipeline stages fold their
// gradients in parallel); calls with the *same* name must be issued in the
// same order by every rank, one at a time — the engine's schedule barriers
// guarantee this for its per-parameter gradient names and per-factor
// curvature names.
package transport

import (
	"errors"
	"fmt"
)

// Group is one rank's membership in a collective group of Size() peers.
// Implementations: Loopback (the in-process degenerate group, Size 1) and
// Ring (a chunked chain/ring transport over TCP or Unix-domain sockets).
type Group interface {
	// Rank is this member's index in [0, Size).
	Rank() int
	// Size is the number of ranks in the group.
	Size() int

	// AllReduce folds base (rank 0's; nil means zeros) and every rank's
	// parts in the package's fixed fold order and writes the result to dst
	// on every rank. All parts and base must have len(dst). Returns the
	// bytes this rank put on the wire.
	AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error)

	// ReduceScatter is AllReduce with a weaker delivery guarantee: only
	// dst[ShardRange(len(dst), Rank(), Size())] is guaranteed to hold the
	// reduced values on return (implementations may deliver more). The
	// fold order is identical to AllReduce.
	ReduceScatter(name string, dst, base []float64, parts [][]float64) (int64, error)

	// AllGather completes buf on every rank from the per-rank shards: on
	// entry rank r's buf holds valid data in ShardRange(len(buf), r,
	// Size()); on return the whole buf is populated on every rank.
	AllGather(name string, buf []float64) (int64, error)

	// Broadcast copies root's buf into every rank's buf.
	Broadcast(name string, root int, buf []float64) (int64, error)

	// BeginRound advances the group's round epoch. Frames from earlier
	// epochs still in flight are discarded on receipt, and an abort from an
	// earlier epoch is cleared — the hook checkpoint/replay uses to re-run
	// a round after a fault without tripping over the aborted round's
	// stragglers. Every rank must call BeginRound the same number of times
	// (the engine calls it once per TrainRound, replays included).
	BeginRound()

	// Abort poisons the group's current epoch: every blocked or future
	// collective call of this epoch fails promptly — locally and, for wire
	// transports, on every peer (an abort frame carries the reason around
	// the ring) — instead of waiting for a rank that will never arrive.
	// BeginRound on a later epoch clears the abort.
	Abort(reason error)

	// BytesOnWire reports the total bytes this rank has sent since the
	// group was created (0 for in-process transports).
	BytesOnWire() int64

	// Close releases the group's connections. Collectives must not be in
	// flight.
	Close() error
}

// Reduction is one all-reduce of a batch: the arguments of Group.AllReduce.
type Reduction struct {
	Name      string
	Dst, Base []float64
	Parts     [][]float64
}

// BatchReducer is implemented by groups that can overlap the waits of
// independent all-reduces; Ring is one.
type BatchReducer interface {
	// AllReduceBatch leaves every reduction's Dst as one AllReduce call
	// each would: same fold order, same frames, same bytes on the wire.
	// The reductions must have distinct names and disjoint Dst buffers.
	AllReduceBatch(rs []Reduction) (int64, error)
}

// AllReduceBatch runs rs on g — as one overlapped exchange when g is a
// BatchReducer, as one AllReduce after another otherwise — and returns the
// bytes put on the wire. A stage's per-parameter gradient reductions go
// through here: on a wire each separate call waits for its peers in turn,
// and a step whose compute is short spends most of its time in those waits.
func AllReduceBatch(g Group, rs []Reduction) (int64, error) {
	if b, ok := g.(BatchReducer); ok {
		return b.AllReduceBatch(rs)
	}
	var bytes int64
	for i := range rs {
		nb, err := g.AllReduce(rs[i].Name, rs[i].Dst, rs[i].Base, rs[i].Parts)
		bytes += nb
		if err != nil {
			return bytes, fmt.Errorf("all-reduce %q: %w", rs[i].Name, err)
		}
	}
	return bytes, nil
}

// RankFailure is the typed liveness error of a wire transport: a specific
// peer is believed dead or unreachable — its connection closed, its wire
// deadline expired, or a collective timed out waiting on it. It is
// distinguishable from an ordinary Abort (a software fault a checkpoint
// replay at the same membership recovers from) precisely so callers can
// regroup instead: shrink the ring around Rank, re-shard, rewind, and
// continue at reduced width. Rank is numbered in the failing group's own
// rank space (a shrunken ring renumbers survivors contiguously).
type RankFailure struct {
	Rank  int   // the rank believed dead (-1 when unattributable)
	Cause error // what was observed
}

func (f *RankFailure) Error() string {
	if f.Rank < 0 {
		return fmt.Sprintf("transport: rank failure: %v", f.Cause)
	}
	return fmt.Sprintf("transport: rank %d failed: %v", f.Rank, f.Cause)
}

func (f *RankFailure) Unwrap() error { return f.Cause }

// AsRankFailure extracts a RankFailure from an error chain, so callers can
// tell "peer died, regroup" from "round aborted, replay" however many
// layers of wrapping the engine added.
func AsRankFailure(err error) (*RankFailure, bool) {
	var rf *RankFailure
	if errors.As(err, &rf) {
		return rf, true
	}
	return nil, false
}

// ShardRange returns rank's contiguous shard [lo, hi) of an n-element
// buffer under the group's canonical partition: near-equal shards with the
// remainder spread over the leading ranks (hi-lo is n/size or n/size+1).
func ShardRange(n, rank, size int) (lo, hi int) {
	return rank * n / size, (rank + 1) * n / size
}

// checkReduceArgs validates the shared AllReduce/ReduceScatter contract.
func checkReduceArgs(dst, base []float64, parts [][]float64) error {
	if base != nil && len(base) != len(dst) {
		return fmt.Errorf("transport: base length %d != dst length %d", len(base), len(dst))
	}
	for i, p := range parts {
		if len(p) != len(dst) {
			return fmt.Errorf("transport: part %d length %d != dst length %d", i, len(p), len(dst))
		}
	}
	return nil
}

// foldInto performs the local share of the fold on one chunk: dst = base
// (or zeros) + every part in ascending order, all restricted to [lo, hi).
func foldInto(dst, base []float64, parts [][]float64, lo, hi int) {
	d := dst[lo:hi]
	if base == nil {
		for i := range d {
			d[i] = 0
		}
	} else {
		copy(d, base[lo:hi])
	}
	for _, p := range parts {
		for i, v := range p[lo:hi] {
			d[i] += v
		}
	}
}

// addParts adds every part (ascending) into dst over [lo, hi).
func addParts(dst []float64, parts [][]float64, lo, hi int) {
	d := dst[lo:hi]
	for _, p := range parts {
		for i, v := range p[lo:hi] {
			d[i] += v
		}
	}
}
