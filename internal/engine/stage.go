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
type stage struct {
	index       int
	first, last bool
	blocks      []*nn.TransformerBlock
	layers      []*nn.Dense // K-FAC-eligible dense layers, in factor order
}

// runBlocks forwards x through the stage's blocks, setting the batch shape
// first (ops of different micro-batches interleave on a stage under 1F1B
// and Chimera, so the shape is re-established per op).
func (st *stage) runBlocks(x *tensor.Matrix, batch, seqLen int) *tensor.Matrix {
	for _, b := range st.blocks {
		b.SetShape(batch, seqLen)
		x = b.Forward(x)
	}
	return x
}

// backBlocks backpropagates grad through the stage's blocks in reverse.
// The caller must have recomputed the stage's forward for the same
// micro-batch immediately before, so every layer's caches match.
func (st *stage) backBlocks(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(st.blocks) - 1; i >= 0; i-- {
		grad = st.blocks[i].Backward(grad)
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
