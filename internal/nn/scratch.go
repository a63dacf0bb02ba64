package nn

import "repro/internal/tensor"

// Backward scratch. A layer's retained buffers fall into two groups: what
// Forward writes and Backward reads (outputs, normalized rows, attention
// probabilities — the micro-batch's *activations*, which must survive from
// its forward to its backward), and what only Backward writes (input
// gradients, the K-FAC output-gradient capture). The second group is dead
// the moment the backward's results have been consumed, so it need not
// belong to the layer: each layer reaches it through a pointer, and whoever
// runs the backward decides whose memory it is. A layer nobody attached
// anything to lazily owns a scratch of its own — the single-device trainers
// and every layer literal keep working — while the pipeline executor
// attaches one device-owned BlockScratch to whichever of a stage's
// activation slots (TransformerBlock.Twin) it is about to back-propagate,
// so any number of in-flight micro-batches share one set of backward
// buffers.

// denseScratch is what only Dense.Backward writes: the returned input
// gradient and the K-FAC capture of the output gradient. In float32 storage
// mode Backward fills capture32 instead (half the bytes) and capture doubles
// as the widen-on-demand scratch of KFACStats/CapturedOutputGrad; is32
// records which one the latest Backward filled, and outputGrad is the
// float64 capture when there is one.
type denseScratch struct {
	dx         *tensor.Matrix // Backward result, N x din
	capture    *tensor.Matrix
	capture32  *tensor.Matrix32
	is32       bool
	outputGrad *tensor.Matrix // N x dout, retained for B_l
}

// dxScratch is the input-gradient buffer of a parameter-light layer
// (LayerNorm, GELU).
type dxScratch struct {
	dx *tensor.Matrix
}

// attnScratch holds the (B·S) x d projection gradients of attendBackward.
type attnScratch struct {
	dq, dk, dv *tensor.Matrix
}

// BlockScratch is the backward scratch of one transformer block: every
// buffer the block's Backward writes and nothing its Forward does. Buffers
// grow on first use and are reused while the batch shape is stable. A
// scratch may serve any number of blocks of the same shape, one Backward at
// a time: its contents (the returned gradient, the captured output
// gradients) are valid until the next Backward through it.
type BlockScratch struct {
	q, k, v, out, ff1, ff2 denseScratch
	norm1, norm2, act      dxScratch
	attn                   attnScratch
}

// AttachScratch makes the block's next Backward (and its K-FAC capture
// accessors) use s instead of whatever scratch its layers held — ten
// pointer stores, no allocation.
func (b *TransformerBlock) AttachScratch(s *BlockScratch) {
	b.Attn.Q.bw, b.Attn.K.bw, b.Attn.V.bw, b.Attn.Out.bw = &s.q, &s.k, &s.v, &s.out
	b.Attn.bw = &s.attn
	b.FF1.bw, b.FF2.bw = &s.ff1, &s.ff2
	b.Norm1.bw, b.Norm2.bw = &s.norm1, &s.norm2
	b.Act.bw = &s.act
}

// Twin returns a block that computes with the receiver's parameters and
// accumulates into the receiver's gradients — the very *tensor.Matrix
// headers, so attaching, detaching or rewriting a parameter's storage
// reaches both — but retains its own forward activations. A block and its
// twins can therefore each hold a different micro-batch between its forward
// and its backward. K-FAC capture flags are copied as they stand.
func (b *TransformerBlock) Twin() *TransformerBlock {
	return &TransformerBlock{
		Name:  b.Name,
		Attn:  b.Attn.twin(),
		Norm1: b.Norm1.twin(),
		Norm2: b.Norm2.twin(),
		FF1:   b.FF1.twin(),
		FF2:   b.FF2.twin(),
		Act:   NewGELU(),
	}
}

func (d *Dense) twin() *Dense {
	return &Dense{Name: d.Name, W: d.W, B: d.B, GW: d.GW, GB: d.GB, CaptureKFAC: d.CaptureKFAC}
}

func (l *LayerNorm) twin() *LayerNorm {
	return &LayerNorm{Name: l.Name, Gain: l.Gain, Bias: l.Bias, GGain: l.GGain, GBias: l.GBias, Eps: l.Eps}
}

func (m *MultiHeadAttention) twin() *MultiHeadAttention {
	return &MultiHeadAttention{
		Name: m.Name, Heads: m.Heads, DModel: m.DModel, Causal: m.Causal,
		Q: m.Q.twin(), K: m.K.twin(), V: m.V.twin(), Out: m.Out.twin(),
	}
}

// RetainedBytes reports the bytes of the block's forward-retained buffers —
// what one activation slot costs — as they are currently sized.
func (b *TransformerBlock) RetainedBytes() int64 {
	a := b.Attn
	n := matBytes(a.probs, a.concatBuf, b.Act.outBuf, b.Act.cdfBuf)
	for _, d := range b.DenseLayers() {
		n += matBytes(d.outBuf)
	}
	for _, l := range []*LayerNorm{b.Norm1, b.Norm2} {
		n += matBytes(l.outBuf, l.lastNormed) + int64(8*len(l.lastInvStd))
	}
	return n
}

// Bytes reports the bytes of the scratch's buffers as they are currently
// sized.
func (s *BlockScratch) Bytes() int64 {
	n := matBytes(s.norm1.dx, s.norm2.dx, s.act.dx, s.attn.dq, s.attn.dk, s.attn.dv)
	for _, d := range []*denseScratch{&s.q, &s.k, &s.v, &s.out, &s.ff1, &s.ff2} {
		n += matBytes(d.dx, d.capture)
		if d.capture32 != nil {
			n += int64(4 * len(d.capture32.Data))
		}
	}
	return n
}

func matBytes(ms ...*tensor.Matrix) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(8 * len(m.Data))
		}
	}
	return n
}
