package tensor

import (
	"math"
	"testing"
)

// rowSpecials are the values the row-op operands are drawn from besides
// N(0,1): NaN, ±Inf, ±0, subnormals and values whose squares overflow.
var rowSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-310, 1e300, -1e300}

// rowIn is one set of row-op operands: three rows x cols matrices, two
// cols-long vectors and a scalar.
type rowIn struct {
	rows, cols int
	a, b, c    []float64
	u, v       []float64
	s          float64
}

// rowOperands draws a rowIn; with specials every seventh element (from an
// offset that differs per call) is a special.
func rowOperands(rng *RNG, rows, cols int, specials bool) rowIn {
	draw := func(n int, scale float64) []float64 {
		x := make([]float64, n)
		off := rng.Intn(7)
		for i := range x {
			x[i] = scale * rng.NormFloat64()
			if specials && i%7 == off {
				x[i] = rowSpecials[rng.Intn(len(rowSpecials))]
			}
		}
		return x
	}
	in := rowIn{rows: rows, cols: cols, a: draw(rows*cols, 3), b: draw(rows*cols, 1),
		c: draw(rows*cols, 1), u: draw(cols, 1), v: draw(cols, 1), s: 0.25 + rng.Float64()}
	for i := range in.c {
		in.c[i] = math.Abs(in.c[i]) // softmax probabilities: non-negative
	}
	return in
}

// rowOps runs each row op on fresh copies of its operands and returns every
// output, concatenated: through its entry point, or with goLoops through
// its Go loops alone, which the entry point must equal under every variant.
// The LayerNorm backward takes b as x̂ and the first column of c, plus one,
// as invStd.
var rowOps = []struct {
	name string
	run  func(in rowIn, goLoops bool) []float64
}{
	{"LayerNormRows", func(in rowIn, goLoops bool) []float64 {
		n := in.rows * in.cols
		out := make([]float64, 2*n+in.rows)
		y, xh, invStd := out[:n], out[n:2*n], out[2*n:]
		if goLoops {
			layerNormRowsGo(y, xh, invStd, in.a, in.u, in.v, 1e-5, 0)
		} else {
			LayerNormRows(y, xh, invStd, in.a, in.u, in.v, 1e-5)
		}
		return out
	}},
	{"LayerNormBackwardRows", func(in rowIn, goLoops bool) []float64 {
		n := in.rows * in.cols
		out := make([]float64, n+2*in.cols)
		gg, gb := out[n:n+in.cols], out[n+in.cols:]
		copy(gg, in.v)
		copy(gb, in.u)
		invStd := make([]float64, in.rows)
		for i := range invStd {
			invStd[i] = in.c[i*in.cols] + 1
		}
		if goLoops {
			layerNormBackwardRowsGo(out[:n], gg, gb, in.a, in.b, invStd, in.u, 0)
		} else {
			LayerNormBackwardRows(out[:n], gg, gb, in.a, in.b, invStd, in.u)
		}
		return out
	}},
	{"SoftmaxRows", func(in rowIn, goLoops bool) []float64 {
		out := make([]float64, len(in.a))
		if goLoops {
			softmaxRowsGo(out, in.a, in.cols, in.s, false, 0)
		} else {
			SoftmaxRows(out, in.a, in.cols, in.s, false)
		}
		return out
	}},
	{"SoftmaxRows/inplace", func(in rowIn, goLoops bool) []float64 {
		out := append([]float64(nil), in.a...)
		if goLoops {
			softmaxRowsGo(out, out, in.cols, in.s, false, 0)
		} else {
			SoftmaxRows(out, out, in.cols, in.s, false)
		}
		return out
	}},
	{"SoftmaxRows/causal", func(in rowIn, goLoops bool) []float64 {
		out := make([]float64, len(in.a))
		if goLoops {
			softmaxRowsGo(out, in.a, in.cols, in.s, true, 0)
		} else {
			SoftmaxRows(out, in.a, in.cols, in.s, true)
		}
		return out
	}},
	{"SoftmaxBackwardRows", func(in rowIn, goLoops bool) []float64 {
		out := make([]float64, len(in.a))
		if goLoops {
			softmaxBackwardRowsGo(out, in.c, in.a, in.cols, in.s, 0)
		} else {
			SoftmaxBackwardRows(out, in.c, in.a, in.cols, in.s)
		}
		return out
	}},
	{"SoftmaxBackwardRows/inplace", func(in rowIn, goLoops bool) []float64 {
		out := append([]float64(nil), in.a...)
		if goLoops {
			softmaxBackwardRowsGo(out, in.c, out, in.cols, in.s, 0)
		} else {
			SoftmaxBackwardRows(out, in.c, out, in.cols, in.s)
		}
		return out
	}},
	{"AddRowVector", func(in rowIn, goLoops bool) []float64 {
		out := append([]float64(nil), in.a...)
		if goLoops {
			addRowVectorGo(out, in.u)
		} else {
			AddRowVector(out, in.u)
		}
		return out
	}},
	{"AddColSums", func(in rowIn, goLoops bool) []float64 {
		out := append([]float64(nil), in.u...)
		if goLoops {
			addColSumsGo(out, in.a)
		} else {
			AddColSums(out, in.a)
		}
		return out
	}},
	{"Matrix.AddInPlace", func(in rowIn, goLoops bool) []float64 {
		m := New(in.rows, in.cols, append([]float64(nil), in.a...))
		if goLoops {
			for i, e := range in.b {
				m.Data[i] += e
			}
		} else {
			m.AddInPlace(New(in.rows, in.cols, in.b))
		}
		return m.Data
	}},
	{"Matrix.ScaleInPlace", func(in rowIn, goLoops bool) []float64 {
		m := New(in.rows, in.cols, append([]float64(nil), in.a...))
		alpha := in.s * 3
		if goLoops {
			for i := range m.Data {
				m.Data[i] *= alpha
			}
		} else {
			m.ScaleInPlace(alpha)
		}
		return m.Data
	}},
}

// checkRowOps holds every row op under every available kernel to its Go
// loops under the same kernel, bit for bit, a NaN matching a NaN.
func checkRowOps(t testing.TB, in rowIn) {
	t.Helper()
	def := ActiveKernel()
	defer SetKernel(def)
	for _, k := range AvailableKernels() {
		if err := SetKernel(k); err != nil {
			t.Fatal(err)
		}
		for _, op := range rowOps {
			got, want := op.run(in, false), op.run(in, true)
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s [%s] %dx%d: output %d = %v, the Go loop's %v",
						op.name, k, in.rows, in.cols, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRowOpsBitIdentical(t *testing.T) {
	rng := NewRNG(41)
	for rows := 1; rows <= 17; rows++ {
		for cols := 1; cols <= 70; cols++ {
			for _, specials := range []bool{false, true} {
				checkRowOps(t, rowOperands(rng, rows, cols, specials))
			}
		}
	}
	// More rows than one softmax chunk hands the assembly at once.
	checkRowOps(t, rowOperands(rng, 2*softmaxChunk+5, 16, true))
}

// TestRowOpsPositionIndependent asserts that a row op's result for a row
// is the one it returns for that row alone: it does not depend on the
// row's index — which lane of which group of four takes it, or whether the
// Go loop does — nor on its neighbours.
func TestRowOpsPositionIndependent(t *testing.T) {
	rowWise := map[string]bool{"LayerNormRows": false, "SoftmaxRows": true, "SoftmaxRows/inplace": true,
		"SoftmaxBackwardRows": true, "SoftmaxBackwardRows/inplace": true}
	rng := NewRNG(43)
	withKernels(t, func(t *testing.T, _ bool) {
		for _, rows := range []int{5, 8, 13} {
			for _, cols := range []int{1, 3, 4, 7, 16, 33} {
				in := rowOperands(rng, rows, cols, true)
				for _, op := range rowOps {
					plain, ok := rowWise[op.name]
					if !ok {
						continue
					}
					got := op.run(in, false)
					for i := 0; i < rows; i++ {
						alone := rowIn{rows: 1, cols: cols, s: in.s, u: in.u, v: in.v,
							a: in.a[i*cols : (i+1)*cols], b: in.b[i*cols : (i+1)*cols], c: in.c[i*cols : (i+1)*cols]}
						want := op.run(alone, false)
						for j := 0; j < cols; j++ {
							if g, w := got[i*cols+j], want[j]; !sameFloat(g, w) {
								t.Fatalf("%s %dx%d: row %d column %d = %v, alone %v", op.name, rows, cols, i, j, g, w)
							}
						}
						if !plain { // LayerNormRows: x̂ and invStd follow y
							n := rows * cols
							for j := 0; j < cols; j++ {
								if g, w := got[n+i*cols+j], want[cols+j]; !sameFloat(g, w) {
									t.Fatalf("%s %dx%d: x̂ row %d column %d = %v, alone %v", op.name, rows, cols, i, j, g, w)
								}
							}
							if g, w := got[2*n+i], want[2*cols]; !sameFloat(g, w) {
								t.Fatalf("%s %dx%d: invStd of row %d = %v, alone %v", op.name, rows, cols, i, g, w)
							}
						}
					}
				}
			}
		}
	})
}

// TestRowOpsZeroAlloc holds the row ops to no allocation per call.
func TestRowOpsZeroAlloc(t *testing.T) {
	in := rowOperands(NewRNG(44), 64, 32, false)
	n := len(in.a)
	y, xh, dx := make([]float64, n), make([]float64, n), make([]float64, n)
	invStd, gg, gb := make([]float64, in.rows), make([]float64, in.cols), make([]float64, in.cols)
	withKernels(t, func(t *testing.T, _ bool) {
		for name, f := range map[string]func(){
			"LayerNormRows":         func() { LayerNormRows(y, xh, invStd, in.a, in.u, in.v, 1e-5) },
			"LayerNormBackwardRows": func() { LayerNormBackwardRows(dx, gg, gb, in.b, xh, invStd, in.u) },
			"SoftmaxRows":           func() { SoftmaxRows(y, in.a, in.cols, 0.5, false) },
			"SoftmaxBackwardRows":   func() { SoftmaxBackwardRows(dx, y, in.b, in.cols, 0.5) },
			"AddRowVector":          func() { AddRowVector(y, in.u) },
			"AddColSums":            func() { AddColSums(gb, in.b) },
		} {
			if a := testing.AllocsPerRun(10, f); a != 0 {
				t.Errorf("%s: %v allocs per call", name, a)
			}
		}
	})
}

// FuzzRowOps draws a shape (1-17 rows, 1-70 columns) and places two
// arbitrary bit patterns among N(0,1) operands; every row op must equal its
// Go loop bit for bit under every variant.
func FuzzRowOps(f *testing.F) {
	bits := math.Float64bits
	for i, x := range rowSpecials {
		f.Add(uint8(i), uint8(3*i), uint64(i), bits(x), bits(-1.5))
	}
	f.Add(uint8(7), uint8(69), uint64(9), bits(1e300), bits(math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, r, c uint8, seed, xb, yb uint64) {
		rows, cols := 1+int(r)%17, 1+int(c)%70
		rng := NewRNG(seed)
		in := rowOperands(rng, rows, cols, false)
		x, y := math.Float64frombits(xb), math.Float64frombits(yb)
		for _, s := range [][]float64{in.a, in.b, in.u, in.v} {
			s[rng.Intn(len(s))] = x
			s[rng.Intn(len(s))] = y
		}
		in.c[rng.Intn(len(in.c))] = math.Abs(x)
		checkRowOps(t, in)
	})
}
