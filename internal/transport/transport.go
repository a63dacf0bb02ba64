// Package transport provides the collective-communication substrate behind
// the engine's data-parallel axis: all-reduce (one at a time or as a batch)
// and broadcast over named float64 buffers, with a deterministic fold order
// that makes the reduced values bit-identical no matter which transport
// carries them. Group is exactly what the engine calls; Ring also offers
// ReduceScatter and AllGather, which only the benchmark's collective
// tracing reaches and which rejoin Group once the engine shards a
// reduction.
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
// alias dst with any part (base may alias dst). A Ring's data frames carry
// their float64 payloads in place: written straight from the caller's
// slices and read straight into the receiver's pooled frames on
// little-endian hosts, converted value by value on big-endian ones, so the
// wire format (little-endian) is one everywhere.
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

// Group is one rank's membership in a collective group of Size() peers:
// the collectives the engine runs — AllReduceBatch for gradient and factor
// sums, AllReduce for barriers and scalars, Broadcast for parameters — and
// the round and failure hooks. Implementations: Loopback (the in-process
// degenerate group, Size 1) and Ring (a chunked chain/ring transport over
// TCP or Unix-domain sockets).
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

	// AllReduceBatch leaves every reduction's Dst as one AllReduce call
	// each would: same fold order, and on a wire the same frames and bytes.
	// The reductions must have distinct names and disjoint Dst buffers. A
	// stage's gradient reductions and a stage's factor reductions go
	// through here, so a ring overlaps their waits (Ring.AllReduceBatch).
	AllReduceBatch(rs []Reduction) (int64, error)

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
// Base is where the chain starts on rank 0 (nil: +0). A rank 0 that
// already added its own parts into a running sum in the fold order —
// starting from +0, one part at a time — passes that sum as Base with no
// Parts, and the result is bit for bit the one its parts would give: the
// engine folds each micro-batch's contribution this way as soon as the
// ones before it are in. Base may alias Dst.
type Reduction struct {
	Name      string
	Dst, Base []float64
	Parts     [][]float64
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

// checkReduceArgs validates an all-reduce's arguments.
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
	if base == nil {
		// The chain starts from +0 (so a sum of −0s is +0), as it always has.
		clear(dst[lo:hi])
		base = dst
	}
	sumParts(dst[lo:hi], base[lo:hi], parts, lo, hi)
}

// addParts adds every part (ascending) into dst over [lo, hi).
func addParts(dst []float64, parts [][]float64, lo, hi int) {
	sumParts(dst[lo:hi], dst[lo:hi], parts, lo, hi)
}

// sumParts writes d[i] = a[i] + parts[0][lo+i] + parts[1][lo+i] + …, the
// additions in ascending part order. It runs element-major, up to four
// parts per pass over d (the common counts 1, 2 and 4 in one), where a
// pass per part would read and write d once per part. a may be d.
func sumParts(d, a []float64, parts [][]float64, lo, hi int) {
	if len(parts) == 0 {
		copy(d, a)
		return
	}
	for len(parts) > 0 {
		a = a[:len(d)]
		switch p0 := parts[0][lo:hi]; {
		case len(parts) >= 4:
			p1, p2, p3 := parts[1][lo:hi], parts[2][lo:hi], parts[3][lo:hi]
			p0, p1, p2, p3 = p0[:len(d)], p1[:len(d)], p2[:len(d)], p3[:len(d)]
			for i := range d {
				d[i] = a[i] + p0[i] + p1[i] + p2[i] + p3[i]
			}
			parts = parts[4:]
		case len(parts) >= 2:
			p1 := parts[1][lo:hi]
			p0, p1 = p0[:len(d)], p1[:len(d)]
			for i := range d {
				d[i] = a[i] + p0[i] + p1[i]
			}
			parts = parts[2:]
		default:
			p0 = p0[:len(d)]
			for i := range d {
				d[i] = a[i] + p0[i]
			}
			parts = parts[1:]
		}
		a = d
	}
}
