package engine

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// stage owns a contiguous slice of one module set's blocks. Stage 0
// additionally drives the set's embedding path, the last stage its head and
// loss. Everything a stage touches belongs to the one device the schedule
// assigns its (replica, pipeline, stage) to, so nothing here is locked;
// where two devices host one pipeline stage (Chimera's bidirectional
// pairs) each drives the stage of its own module set, and the two sets
// share only their parameter values, which no op writes.
//
// The stage keeps one activation slot per micro-batch the schedule holds in
// flight there (pipeline.Schedule.InFlightDepth, sized by
// Engine.sizeSlots): a forward takes a free slot, the micro-batch's
// backward runs on it and frees it, so no backward re-runs a forward.
type stage struct {
	index       int
	first, last bool
	blocks      []*nn.TransformerBlock
	layers      []*nn.Dense // K-FAC-eligible dense layers, in factor order

	// slots[0] is the model's own blocks, the rest their twins; free is the
	// stack of slots holding no micro-batch, peak the most ever held at once.
	slots []*actSlot
	free  []*actSlot
	peak  int
}

// actSlot is one micro-batch's worth of a stage's forward-retained layer
// buffers: the stage's blocks (slot 0) or twins of them, which compute with
// the same parameter headers and accumulate into the same gradients. out is
// the stage output its last block retains between the micro-batch's forward
// and backward.
type actSlot struct {
	blocks []*nn.TransformerBlock
	layers []*nn.Dense // of blocks, congruent with stage.layers
	out    *tensor.Matrix
}

func newActSlot(blocks []*nn.TransformerBlock) *actSlot {
	sl := &actSlot{blocks: blocks}
	for _, b := range blocks {
		sl.layers = append(sl.layers, b.DenseLayers()...)
	}
	return sl
}

// resize gives the stage n activation slots, all free: twins are added or
// dropped, never the model's own blocks. Only called between rounds.
func (st *stage) resize(n int) {
	n = max(n, 1)
	for len(st.slots) < n {
		twins := make([]*nn.TransformerBlock, len(st.blocks))
		for i, b := range st.blocks {
			twins[i] = b.Twin()
		}
		st.slots = append(st.slots, newActSlot(twins))
	}
	clear(st.slots[n:])
	st.slots = st.slots[:n]
	st.peak = 0
	st.freeAll()
}

// freeAll marks every slot free — the state between rounds, and what an
// aborted round's rollback restores.
func (st *stage) freeAll() { st.free = append(st.free[:0], st.slots...) }

// take hands out a free slot for a micro-batch's forward.
func (st *stage) take() (*actSlot, error) {
	n := len(st.free)
	if n == 0 {
		return nil, fmt.Errorf("engine: stage %d holds %d micro-batches in flight and has no free activation slot", st.index, len(st.slots))
	}
	sl := st.free[n-1]
	st.free = st.free[:n-1]
	st.peak = max(st.peak, len(st.slots)-len(st.free))
	return sl, nil
}

// release returns a slot whose micro-batch finished its backward.
func (st *stage) release(sl *actSlot) { st.free = append(st.free, sl) }

// forward runs x through the slot's blocks, setting the batch shape first
// (ops of different micro-batches interleave on a stage under 1F1B and
// Chimera, so the shape is re-established per op), and retains the output.
func (sl *actSlot) forward(x *tensor.Matrix, batch, seqLen int) *tensor.Matrix {
	for _, b := range sl.blocks {
		b.SetShape(batch, seqLen)
		x = b.Forward(x)
	}
	sl.out = x
	return x
}

// backward backpropagates grad through the slot's blocks in reverse, on the
// caches its forward left, writing everything only a backward produces into
// the calling device's scratch (one BlockScratch per block position). With
// capture, the dense layers also copy their output gradients — the K-FAC
// B-statistics — into that scratch; the engine asks for it on the one
// backward per micro-batch whose statistics it snapshots, and no other pays
// the copy. The result and the captures are valid until the device's next
// backward.
func (sl *actSlot) backward(grad *tensor.Matrix, scratch []*nn.BlockScratch, capture bool) *tensor.Matrix {
	for _, l := range sl.layers {
		l.CaptureKFAC = capture
	}
	for i := len(sl.blocks) - 1; i >= 0; i-- {
		sl.blocks[i].AttachScratch(scratch[i])
		grad = sl.blocks[i].Backward(grad)
	}
	return grad
}

// layerOf resolves a Kronecker-factor index (A factors even, B odd — the
// order of pipeline.StageCosts.InversionUnits) to the stage's dense layer.
func (st *stage) layerOf(factor int) (layer int, factorB bool, err error) {
	if factor < 0 || factor >= 2*len(st.layers) {
		return 0, false, fmt.Errorf("engine: stage %d has no factor %d (have %d)", st.index, factor, 2*len(st.layers))
	}
	return factor / 2, factor%2 == 1, nil
}
