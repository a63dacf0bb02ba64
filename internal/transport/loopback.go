package transport

import "fmt"

// Loopback is the degenerate single-rank group: the refactor of the
// engine's original in-process pooled-buffer collective into the Group
// interface, and the parity reference every wire transport is tested
// against. AllReduce is bit for bit the historical reduceGrads fold — the
// base plus each part in ascending order, now summed element by element
// (sumParts) — so routing the engine's collectives through a Loopback
// group is bit-identical to (and as allocation-free as) the pre-transport
// code path.
type Loopback struct{}

// Rank returns 0 — a loopback group has one member.
func (Loopback) Rank() int { return 0 }

// Size returns 1.
func (Loopback) Size() int { return 1 }

// AllReduce folds base and parts into dst in the fixed ascending order.
func (Loopback) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	if err := checkReduceArgs(dst, base, parts); err != nil {
		return 0, err
	}
	foldInto(dst, base, parts, 0, len(dst))
	return 0, nil
}

// AllReduceBatch is one AllReduce per reduction, in order.
func (l Loopback) AllReduceBatch(rs []Reduction) (int64, error) {
	for i := range rs {
		if _, err := l.AllReduce(rs[i].Name, rs[i].Dst, rs[i].Base, rs[i].Parts); err != nil {
			return 0, fmt.Errorf("all-reduce %q: %w", rs[i].Name, err)
		}
	}
	return 0, nil
}

// Broadcast is a no-op for root 0 (the only valid root).
func (Loopback) Broadcast(name string, root int, buf []float64) (int64, error) {
	if root != 0 {
		return 0, fmt.Errorf("transport: loopback broadcast root %d out of range", root)
	}
	return 0, nil
}

// BeginRound is a no-op: nothing is in flight in-process.
func (Loopback) BeginRound() {}

// Abort is a no-op: there are no peers to unblock.
func (Loopback) Abort(reason error) {}

// BytesOnWire returns 0: loopback collectives never touch a wire.
func (Loopback) BytesOnWire() int64 { return 0 }

// Close is a no-op.
func (Loopback) Close() error { return nil }
