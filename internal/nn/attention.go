package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MultiHeadAttention implements the standard transformer self-attention
// sublayer: Q/K/V projections, per-head scaled dot-product attention, and
// an output projection. Inputs are token matrices of shape (B·S) x d; the
// module must be told the sequence length so it can respect sequence
// boundaries.
//
// The four projections are Dense layers, so K-FAC applies to them exactly
// as the paper prescribes (all fully-connected layers except the final
// classification head, §4).
type MultiHeadAttention struct {
	// Name labels the sublayer.
	Name string
	// Heads is the number of attention heads; DModel must divide evenly.
	Heads  int
	DModel int
	// Causal masks attention so position i attends only to positions
	// <= i, as in the decoder-only OPT models of Table 3.
	Causal bool
	// Q, K, V, Out are the four projection layers.
	Q, K, V, Out *Dense

	seqLen int
	batch  int
	lastQ  *tensor.Matrix // (B·S) x d
	lastK  *tensor.Matrix // (B·S) x d
	lastV  *tensor.Matrix // (B·S) x d
	// probs stacks the S x S attention probabilities of the B·heads items;
	// lastProbs[b*Heads+h] is item (b, h)'s block of it.
	probs     *tensor.Matrix
	lastProbs []*tensor.Matrix

	// Retained buffers so the steady-state hot path allocates nothing:
	// probs and concatBuf are reused across calls, prods is transient within
	// one Forward/Backward, and bw — the projection gradients — is the
	// backward scratch (scratch.go), the module's own unless a BlockScratch
	// was attached.
	concatBuf *tensor.Matrix   // (B·S) x d head concatenation
	prods     []tensor.Product // the batch handed to tensor.MulViews
	bw        *attnScratch
}

// NewMultiHeadAttention builds the sublayer; d must be divisible by heads.
func NewMultiHeadAttention(name string, d, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("nn: attention %q: d_model %d not divisible by %d heads", name, d, heads))
	}
	return &MultiHeadAttention{
		Name:   name,
		Heads:  heads,
		DModel: d,
		Q:      NewDense(name+".q", d, d, rng),
		K:      NewDense(name+".k", d, d, rng),
		V:      NewDense(name+".v", d, d, rng),
		Out:    NewDense(name+".out", d, d, rng),
	}
}

// SetShape tells the module the (batch, seqLen) factorization of upcoming
// token matrices. It must be called before Forward whenever the shape
// changes.
func (m *MultiHeadAttention) SetShape(batch, seqLen int) {
	m.batch = batch
	m.seqLen = seqLen
}

// The per-(sequence, head) core runs on the packed GEMM driver: every
// product below is one tensor.MulViews batch over the B·heads items, whose
// operands are the S x dk column windows of the (B·S) x d projections —
// no gather copies, results written straight into the head's window. Each
// element is one ascending-k reduction, so under KernelTiled the result
// equals scalar dot-product loops bit for bit (KernelFMA differs by fused
// rounding), for any worker count. The products follow the compute
// mode like Dense's (float32 panels under tensor.SetF32); the softmax and
// its backward stay float64.

// head returns item i's S x dk window of the (B·S) x d matrix x; item
// i = b*Heads + h is head h of sequence b.
func (m *MultiHeadAttention) head(x *tensor.Matrix, i int) tensor.View {
	dk := m.DModel / m.Heads
	return x.View(i/m.Heads*m.seqLen, i%m.Heads*dk, m.seqLen, dk)
}

// square returns item i's S x S block of a stacked (B·heads·S) x S matrix.
func (m *MultiHeadAttention) square(x *tensor.Matrix, i int) tensor.View {
	return x.View(i*m.seqLen, 0, m.seqLen, m.seqLen)
}

// products returns the retained batch, n products long.
func (m *MultiHeadAttention) products(n int) []tensor.Product {
	if cap(m.prods) < n {
		m.prods = make([]tensor.Product, n)
	}
	return m.prods[:n]
}

// Forward runs self-attention over each sequence independently.
func (m *MultiHeadAttention) Forward(x *tensor.Matrix) *tensor.Matrix {
	if m.batch == 0 || m.seqLen == 0 {
		panic(fmt.Sprintf("nn: attention %q Forward before SetShape", m.Name))
	}
	if x.Rows != m.batch*m.seqLen {
		panic(fmt.Sprintf("nn: attention %q got %d tokens, want %d*%d", m.Name, x.Rows, m.batch, m.seqLen))
	}
	return m.Out.Forward(m.attend(m.Q.Forward(x), m.K.Forward(x), m.V.Forward(x)))
}

// attend is the forward core: per item, probs = softmax(Qh Kh^T * scale)
// and Oh = probs Vh, concatenated over the heads. q, k and v are retained
// for attendBackward.
func (m *MultiHeadAttention) attend(q, k, v *tensor.Matrix) *tensor.Matrix {
	m.lastQ, m.lastK, m.lastV = q, k, v
	n, s := m.batch*m.Heads, m.seqLen
	scale := 1 / math.Sqrt(float64(m.DModel/m.Heads))
	concat := tensor.Reuse(m.concatBuf, q.Rows, m.DModel)
	m.concatBuf = concat
	if probs := tensor.Reuse(m.probs, n*s, s); probs != m.probs {
		m.probs, m.lastProbs = probs, make([]*tensor.Matrix, n)
		for i := range m.lastProbs {
			m.lastProbs[i] = tensor.New(s, s, probs.Data[i*s*s:(i+1)*s*s])
		}
	}

	// The scores land in probs and are normalised in place; for causal
	// attention the product is full and the row pass masks the future.
	ps := m.products(n)
	for i := range ps {
		ps[i] = tensor.Product{Dst: m.square(m.probs, i), A: m.head(q, i), B: m.head(k, i), TransB: true}
	}
	tensor.MulViews(ps)
	softmaxRows(m.probs, m.probs, scale, m.Causal)
	for i := range ps {
		ps[i] = tensor.Product{Dst: m.head(concat, i), A: m.square(m.probs, i), B: m.head(v, i)}
	}
	tensor.MulViews(ps)
	return concat
}

// Backward propagates through the output projection, the per-head
// attention, and the Q/K/V projections.
func (m *MultiHeadAttention) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if m.probs == nil {
		panic(fmt.Sprintf("nn: attention %q Backward before Forward", m.Name))
	}
	dQ, dK, dV := m.attendBackward(m.Out.Backward(grad))
	dx := m.Q.Backward(dQ)
	dx.AddInPlace(m.K.Backward(dK))
	dx.AddInPlace(m.V.Backward(dV))
	return dx
}

// attendBackward is the backward core: the gradients of attend's q, k and
// v given the gradient of its (B·S) x d result.
func (m *MultiHeadAttention) attendBackward(dConcat *tensor.Matrix) (dQ, dK, dV *tensor.Matrix) {
	n := m.batch * m.Heads
	scale := 1 / math.Sqrt(float64(m.DModel/m.Heads))
	if m.bw == nil {
		m.bw = new(attnScratch)
	}
	dQ = tensor.Reuse(m.bw.dq, dConcat.Rows, m.DModel)
	dK = tensor.Reuse(m.bw.dk, dConcat.Rows, m.DModel)
	dV = tensor.Reuse(m.bw.dv, dConcat.Rows, m.DModel)
	m.bw.dq, m.bw.dk, m.bw.dv = dQ, dK, dV

	// dP = dOh Vh^T, stacked like probs, then the softmax backward in place
	// with the score scale folded in: dS = P∘(dP - rowsum(dP∘P)) * scale.
	ds := tensor.Get(m.probs.Rows, m.probs.Cols)
	defer tensor.Put(ds)
	ps := m.products(3 * n)
	for i := 0; i < n; i++ {
		ps[i] = tensor.Product{Dst: m.square(ds, i), A: m.head(dConcat, i), B: m.head(m.lastV, i), TransB: true}
	}
	tensor.MulViews(ps[:n])
	softmaxBackwardRows(ds, m.probs, ds, scale)
	// dVh = P^T dOh ; dQh = dS Kh ; dKh = dS^T Qh, into the heads' windows.
	for i := 0; i < n; i++ {
		ps[3*i] = tensor.Product{Dst: m.head(dV, i), A: m.square(m.probs, i), B: m.head(dConcat, i), TransA: true}
		ps[3*i+1] = tensor.Product{Dst: m.head(dQ, i), A: m.square(ds, i), B: m.head(m.lastK, i)}
		ps[3*i+2] = tensor.Product{Dst: m.head(dK, i), A: m.square(ds, i), B: m.head(m.lastQ, i), TransA: true}
	}
	tensor.MulViews(ps)
	// ds goes back to the pool: drop the windows into it, so the retained
	// batch never pins a buffer this module no longer owns.
	clear(ps)
	return dQ, dK, dV
}

// Params returns the parameters of the four projections.
func (m *MultiHeadAttention) Params() []*Param {
	var out []*Param
	out = append(out, m.Q.Params()...)
	out = append(out, m.K.Params()...)
	out = append(out, m.V.Params()...)
	out = append(out, m.Out.Params()...)
	return out
}

// DenseLayers returns the K-FAC-eligible fully-connected layers.
func (m *MultiHeadAttention) DenseLayers() []*Dense {
	return []*Dense{m.Q, m.K, m.V, m.Out}
}
