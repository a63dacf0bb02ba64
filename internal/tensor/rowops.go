package tensor

import "math"

// Row ops: the non-GEMM passes of a transformer block — LayerNorm forward
// and backward, attention's softmax forward and backward, Dense's bias add
// and bias-gradient column sum, and the residual adds and scalings of
// Matrix.AddInPlace / ScaleInPlace. Their operands are row-major matrices
// held as flat slices, rows of len(gain) / cols elements each.
//
// They hold AdamUpdate's contract (vecmath.go): under every variant each
// result equals the Go loops below bit for bit (a NaN matching a NaN).
// KernelFMA runs AVX2 assembly (rowops_amd64.s) over whole groups of four
// rows and the Go loops over the last rows%4; KernelTiled runs the Go
// loops alone. The assembly runs each Go operator as one VMULPD, VADDPD,
// VSUBPD, VDIVPD or VSQRTPD, never a fused multiply-add, and the Go loops
// convert every product explicitly, which the spec says prevents fusion at
// any GOAMD64 level. Reductions keep the Go loops' order by the rule
// "rows in lanes": a row reduction (LayerNorm's mean and variance, its
// backward Σdx̂ and Σdx̂·x̂, softmax's max and sum, its backward dot
// product) gives each of four lanes one row, which adds that row's
// elements in ascending column order — the rows reach the lanes through
// 4x4 register transposes, two groups of four rows in flight — and a
// column reduction (LayerNorm's gain and bias gradients, Dense's bias
// gradient) gives each lane one column, which adds in ascending row order.
// So a row's result depends on its values only, never on its index or
// its neighbours. Pinned by TestRowOpsBitIdentical, TestRowOpsPositionIndependent
// and FuzzRowOps. None of them allocates.

// rowGroup is the row count the assembly takes at once; the Go loops run
// the rest.
const rowGroup = 4

// vecRows reports how many of rows the assembly runs.
func vecRows(rows int) int {
	if ActiveKernel() != KernelFMA {
		return 0
	}
	return rows &^ (rowGroup - 1)
}

// LayerNormRows normalizes each row of x (rows = len(invStd), d =
// len(gain) columns) to zero mean and unit variance, writing x̂ to xhat,
// x̂·gain + bias to y and 1/√(var + eps) to invStd. The mean and the
// variance are ascending sums over the row, each divided by d.
func LayerNormRows(y, xhat, invStd, x, gain, bias []float64, eps float64) {
	rows, d := len(invStd), len(gain)
	n := rows * d
	y, xhat, x, bias = y[:n], xhat[:n], x[:n], bias[:d]
	v := vecRows(rows)
	if v > 0 {
		layerNormFwdFMA(y[:v*d], xhat[:v*d], invStd[:v], x[:v*d], gain, bias, eps)
	}
	layerNormRowsGo(y, xhat, invStd, x, gain, bias, eps, v)
}

// layerNormRowsGo is LayerNormRows' Go loop over rows from on.
func layerNormRowsGo(y, xhat, invStd, x, gain, bias []float64, eps float64, from int) {
	d := len(gain)
	df := float64(d)
	for i := from; i < len(invStd); i++ {
		row := x[i*d : (i+1)*d]
		var mean float64
		for _, e := range row {
			mean += e
		}
		mean /= df
		var variance float64
		for _, e := range row {
			dv := e - mean
			variance += float64(dv * dv)
		}
		variance /= df
		is := 1 / math.Sqrt(variance+eps)
		invStd[i] = is
		nrow, yrow := xhat[i*d:(i+1)*d], y[i*d:(i+1)*d]
		for j, e := range row {
			xh := (e - mean) * is
			nrow[j] = xh
			yrow[j] = float64(xh*gain[j]) + bias[j]
		}
	}
}

// LayerNormBackwardRows is LayerNormRows' backward: given the output
// gradient g, x̂ and invStd of the forward, it adds g·x̂ to gGain and g to
// gBias, column by column in ascending row order, and writes the input
// gradient dx = invStd/d · (d·dx̂ − Σdx̂ − x̂·Σdx̂·x̂), dx̂ = g·gain, each sum
// ascending over the row. dx must not alias g or xhat.
func LayerNormBackwardRows(dx, gGain, gBias, g, xhat, invStd, gain []float64) {
	rows, d := len(invStd), len(gain)
	n := rows * d
	dx, g, xhat, gGain, gBias = dx[:n], g[:n], xhat[:n], gGain[:d], gBias[:d]
	v := vecRows(rows)
	if v > 0 {
		layerNormBwdFMA(dx[:v*d], gGain, gBias, g[:v*d], xhat[:v*d], invStd[:v], gain)
	}
	layerNormBackwardRowsGo(dx, gGain, gBias, g, xhat, invStd, gain, v)
}

// layerNormBackwardRowsGo is LayerNormBackwardRows' Go loop over rows from
// on.
func layerNormBackwardRowsGo(dx, gGain, gBias, g, xhat, invStd, gain []float64, from int) {
	d := len(gain)
	df := float64(d)
	for i := from; i < len(invStd); i++ {
		grow, nrow, orow := g[i*d:(i+1)*d], xhat[i*d:(i+1)*d], dx[i*d:(i+1)*d]
		for j, e := range grow {
			gGain[j] += float64(e * nrow[j])
			gBias[j] += e
		}
		var sumDx, sumDxXhat float64
		for j, e := range grow {
			dxhat := float64(e * gain[j])
			sumDx += dxhat
			sumDxXhat += float64(dxhat * nrow[j])
		}
		k := invStd[i] / df
		for j, e := range grow {
			dxhat := e * gain[j]
			orow[j] = k * (float64(df*dxhat) - sumDx - float64(nrow[j]*sumDxXhat))
		}
	}
}

// softmaxChunk is how many rows' maxima one assembly call hands back.
const softmaxChunk = 64

// SoftmaxRows writes softmax(scale·x) row by row into dst (rows of cols
// elements; dst may be x). With causal, x is a stack of square cols x cols
// score blocks: row i of a block sees columns <= i only and the rest get
// probability exactly 0, as if their scores were -Inf. The exps are
// ExpShift's; the max and the row sum run in ascending column order. The
// assembly takes the non-causal rows.
func SoftmaxRows(dst, x []float64, cols int, scale float64, causal bool) {
	if cols == 0 {
		return
	}
	rows := len(x) / cols
	dst, x = dst[:rows*cols], x[:rows*cols]
	v := 0
	if !causal {
		v = vecRows(rows)
	}
	var mx [softmaxChunk]float64
	for r0 := 0; r0 < v; r0 += softmaxChunk {
		r1 := min(r0+softmaxChunk, v)
		blk := dst[r0*cols : r1*cols]
		softmaxMaxFMA(blk, x[r0*cols:r1*cols], mx[:r1-r0], cols, scale)
		for r := range r1 - r0 {
			row := blk[r*cols : (r+1)*cols]
			expShiftFMA(row, row, mx[r])
		}
		softmaxNormFMA(blk, r1-r0, cols)
	}
	softmaxRowsGo(dst, x, cols, scale, causal, v)
}

// softmaxRowsGo is SoftmaxRows' Go loop over rows from on.
func softmaxRowsGo(dst, x []float64, cols int, scale float64, causal bool, from int) {
	for i := from; i < len(x)/cols; i++ {
		n := cols
		if causal {
			n = i%cols + 1
		}
		row := x[i*cols : i*cols+n]
		orow := dst[i*cols : (i+1)*cols]
		clear(orow[n:])
		orow = orow[:n]
		m := math.Inf(-1)
		for j, e := range row {
			e *= scale
			orow[j] = e
			if e > m {
				m = e
			}
		}
		ExpShift(orow, orow, m)
		var sum float64
		for _, e := range orow {
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
}

// SoftmaxBackwardRows writes the gradient with respect to x of
// softmax(scale·x) into dst, given its probabilities p and the upstream
// gradient g (rows of cols elements): dst = p·(g − Σ p·g)·scale per row,
// the dot product ascending over the row. dst may be g but not p.
func SoftmaxBackwardRows(dst, p, g []float64, cols int, scale float64) {
	if cols == 0 {
		return
	}
	rows := len(p) / cols
	n := rows * cols
	dst, p, g = dst[:n], p[:n], g[:n]
	v := vecRows(rows)
	if v > 0 {
		softmaxBwdFMA(dst[:v*cols], p[:v*cols], g[:v*cols], v, cols, scale)
	}
	softmaxBackwardRowsGo(dst, p, g, cols, scale, v)
}

// softmaxBackwardRowsGo is SoftmaxBackwardRows' Go loop over rows from on.
func softmaxBackwardRowsGo(dst, p, g []float64, cols int, scale float64, from int) {
	for i := from; i < len(p)/cols; i++ {
		prow, grow, orow := p[i*cols:(i+1)*cols], g[i*cols:(i+1)*cols], dst[i*cols:(i+1)*cols]
		var dot float64
		for j, e := range prow {
			dot += float64(e * grow[j])
		}
		for j, e := range prow {
			orow[j] = float64(float64(e*(grow[j]-dot)) * scale)
		}
	}
}

// AddRowVector adds b to every row of dst (rows of len(b) elements).
func AddRowVector(dst, b []float64) {
	if len(b) == 0 {
		return
	}
	dst = dst[:len(dst)/len(b)*len(b)]
	if ActiveKernel() == KernelFMA {
		addRowFMA(dst, b)
		return
	}
	addRowVectorGo(dst, b)
}

// addRowVectorGo is AddRowVector's Go loop.
func addRowVectorGo(dst, b []float64) {
	for i := 0; i < len(dst); i += len(b) {
		row := dst[i : i+len(b)]
		for j, e := range b {
			row[j] += e
		}
	}
}

// AddColSums adds the column sums of src (rows of len(dst) elements) to
// dst, each column summed in ascending row order.
func AddColSums(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	src = src[:len(src)/len(dst)*len(dst)]
	if ActiveKernel() == KernelFMA {
		colSumFMA(dst, src)
		return
	}
	addColSumsGo(dst, src)
}

// addColSumsGo is AddColSums' Go loop.
func addColSumsGo(dst, src []float64) {
	for i := 0; i < len(src); i += len(dst) {
		row := src[i : i+len(dst)]
		for j, e := range row {
			dst[j] += e
		}
	}
}

// addTo sets dst[i] += src[i]; dst has len(src).
func addTo(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if ActiveKernel() == KernelFMA {
		i = len(src) &^ 3
		addFMA(dst[:i], src[:i])
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// scaleBy sets dst[i] *= alpha.
func scaleBy(dst []float64, alpha float64) {
	i := 0
	if ActiveKernel() == KernelFMA {
		i = len(dst) &^ 3
		scaleFMA(dst[:i], alpha)
	}
	for ; i < len(dst); i++ {
		dst[i] *= alpha
	}
}
