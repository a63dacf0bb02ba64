package kfac

import (
	"fmt"

	"repro/internal/tensor"
)

// Snapshot captures a Preconditioner's full numeric state — Kronecker-factor
// EMAs, cached inverses, and refresh counters for every layer — so the
// engine's round checkpoint/replay can rewind K-FAC exactly. Buffers are
// retained and reused across Save calls (plain allocations, never pooled),
// so steady-state checkpointing allocates nothing once shapes stabilize.
type Snapshot struct {
	layers []layerSnapshot
}

type layerSnapshot struct {
	a, b                            *tensor.Matrix
	ainv, binv                      *tensor.Matrix // nil when absent
	hasA, hasB                      bool
	curvUpdates, invUpdates, invAge int
}

// copyInto copies src into a retained buffer (reusing dst when shapes
// match), returning the buffer and whether src was present.
func copyInto(dst, src *tensor.Matrix) (*tensor.Matrix, bool) {
	if src == nil {
		return dst, false
	}
	dst = tensor.Reuse(dst, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst, true
}

// restoreFrom copies a retained buffer into the live matrix, reusing the
// live allocation when shapes match. Absent buffers restore to nil.
func restoreFrom(live, saved *tensor.Matrix, present bool) *tensor.Matrix {
	if !present {
		return nil
	}
	live = tensor.Reuse(live, saved.Rows, saved.Cols)
	copy(live.Data, saved.Data)
	return live
}

// Save records p's current state into the snapshot, reusing retained
// buffers from previous saves.
func (s *Snapshot) Save(p *Preconditioner) {
	if len(s.layers) != len(p.states) {
		s.layers = make([]layerSnapshot, len(p.states))
	}
	for i, st := range p.states {
		ls := &s.layers[i]
		ls.a, ls.hasA = copyInto(ls.a, st.A)
		ls.b, ls.hasB = copyInto(ls.b, st.B)
		ls.ainv = st.Inverse(false, ls.ainv)
		ls.binv = st.Inverse(true, ls.binv)
		ls.curvUpdates = st.CurvatureUpdates
		ls.invUpdates = st.InverseUpdates
		ls.invAge = st.InverseAge
	}
}

// Restore rewinds p to the snapshot's state. The snapshot must have been
// saved from a Preconditioner with the same layer set.
func (s *Snapshot) Restore(p *Preconditioner) error {
	if len(s.layers) != len(p.states) {
		return fmt.Errorf("kfac: snapshot has %d layers, preconditioner has %d", len(s.layers), len(p.states))
	}
	for i, st := range p.states {
		ls := &s.layers[i]
		st.A = restoreFrom(st.A, ls.a, ls.hasA)
		st.B = restoreFrom(st.B, ls.b, ls.hasB)
		st.setInverse(false, ls.ainv)
		st.setInverse(true, ls.binv)
		st.CurvatureUpdates = ls.curvUpdates
		st.InverseUpdates = ls.invUpdates
		st.InverseAge = ls.invAge
	}
	return nil
}
