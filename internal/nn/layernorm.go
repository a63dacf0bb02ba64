package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LayerNorm normalizes each row (token) of its input to zero mean and unit
// variance, then applies a learned per-feature gain and bias, as in BERT's
// post-LN blocks.
type LayerNorm struct {
	// Name labels the layer for parameter naming.
	Name string
	// Gain and Bias are 1 x d learned parameters.
	Gain, Bias *tensor.Matrix
	// GGain and GBias accumulate their gradients.
	GGain, GBias *tensor.Matrix
	// Eps is the variance floor.
	Eps float64

	lastNormed *tensor.Matrix // x-hat, N x d
	lastInvStd []float64      // per-row 1/sqrt(var+eps)

	// outBuf is the retained output (valid until the next Forward) and bw
	// the backward scratch holding the input gradient (scratch.go; the
	// layer's own unless a BlockScratch was attached), so the steady-state
	// hot path allocates nothing.
	outBuf *tensor.Matrix
	bw     *dxScratch
}

// NewLayerNorm builds a LayerNorm over d features with gain 1 and bias 0.
func NewLayerNorm(name string, d int) *LayerNorm {
	return &LayerNorm{
		Name:  name,
		Gain:  tensor.Full(1, d, 1),
		Bias:  tensor.Zeros(1, d),
		GGain: tensor.Zeros(1, d),
		GBias: tensor.Zeros(1, d),
		Eps:   1e-5,
	}
}

// Forward normalizes each row and applies gain/bias.
func (l *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.Gain.Cols {
		panic(fmt.Sprintf("nn: LayerNorm %q expects %d features, got %d", l.Name, l.Gain.Cols, x.Cols))
	}
	n, d := x.Rows, x.Cols
	if x == l.outBuf {
		l.outBuf = nil
	}
	y := tensor.Reuse(l.outBuf, n, d)
	l.outBuf = y
	l.lastNormed = tensor.Reuse(l.lastNormed, n, d)
	if len(l.lastInvStd) != n {
		l.lastInvStd = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(d)
		var variance float64
		for _, v := range row {
			dv := v - mean
			variance += dv * dv
		}
		variance /= float64(d)
		invStd := 1 / math.Sqrt(variance+l.Eps)
		l.lastInvStd[i] = invStd
		nrow := l.lastNormed.Row(i)
		yrow := y.Row(i)
		for j, v := range row {
			xhat := (v - mean) * invStd
			nrow[j] = xhat
			yrow[j] = xhat*l.Gain.Data[j] + l.Bias.Data[j]
		}
	}
	return y
}

// Backward propagates through the normalization and accumulates gain/bias
// gradients.
func (l *LayerNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.lastNormed == nil {
		panic(fmt.Sprintf("nn: LayerNorm %q Backward before Forward", l.Name))
	}
	n, d := grad.Rows, grad.Cols
	if l.bw == nil {
		l.bw = new(dxScratch)
	}
	if grad == l.bw.dx {
		l.bw.dx = nil
	}
	out := tensor.Reuse(l.bw.dx, n, d)
	l.bw.dx = out
	df := float64(d)
	for i := 0; i < n; i++ {
		grow := grad.Row(i)
		nrow := l.lastNormed.Row(i)
		orow := out.Row(i)
		// Accumulate parameter gradients.
		for j := 0; j < d; j++ {
			l.GGain.Data[j] += grow[j] * nrow[j]
			l.GBias.Data[j] += grow[j]
		}
		// dxhat = grad * gain; then the standard LN backward:
		// dx = invStd/d * (d*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat)).
		var sumDx, sumDxXhat float64
		for j := 0; j < d; j++ {
			dxhat := grow[j] * l.Gain.Data[j]
			sumDx += dxhat
			sumDxXhat += dxhat * nrow[j]
		}
		invStd := l.lastInvStd[i]
		for j := 0; j < d; j++ {
			dxhat := grow[j] * l.Gain.Data[j]
			orow[j] = invStd / df * (df*dxhat - sumDx - nrow[j]*sumDxXhat)
		}
	}
	return out
}

// Params returns the gain and bias parameters.
func (l *LayerNorm) Params() []*Param {
	return []*Param{
		{Name: l.Name + ".gain", Value: l.Gain, Grad: l.GGain},
		{Name: l.Name + ".bias", Value: l.Bias, Grad: l.GBias},
	}
}
