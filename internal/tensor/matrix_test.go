package tensor

import (
	"math"
	"testing"
)

func TestNewAndAt(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("At returned wrong values: %v", m)
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	New(2, 2, []float64{1, 2, 3})
}

func TestSetAndGet(t *testing.T) {
	m := Zeros(3, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("Set/At: got %g, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := Zeros(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %v", idx)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestEye(t *testing.T) {
	m := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(4)[%d,%d] = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestFull(t *testing.T) {
	m := Full(2, 3, 4.2)
	for _, v := range m.Data {
		if v != 4.2 {
			t.Fatalf("Full: got %g, want 4.2", v)
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	want := New(2, 2, []float64{1, 2, 3, 4})
	if !m.Equal(want) {
		t.Fatalf("FromRows: got %v, want %v", m, want)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape: got %dx%d, want 3x2", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(1)
	m := RandN(r, 5, 7, 1)
	if !m.T().T().Equal(m) {
		t.Fatal("T(T(m)) != m")
	}
}

func TestAddSubScale(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2, []float64{10, 20, 30, 40})
	if got := a.Add(b); !got.Equal(New(2, 2, []float64{11, 22, 33, 44})) {
		t.Fatalf("Add: got %v", got)
	}
	if got := b.Sub(a); !got.Equal(New(2, 2, []float64{9, 18, 27, 36})) {
		t.Fatalf("Sub: got %v", got)
	}
	if got := a.Scale(2); !got.Equal(New(2, 2, []float64{2, 4, 6, 8})) {
		t.Fatalf("Scale: got %v", got)
	}
}

func TestAddInPlaceAndScaled(t *testing.T) {
	a := New(1, 3, []float64{1, 2, 3})
	b := New(1, 3, []float64{1, 1, 1})
	a.AddInPlace(b)
	if !a.Equal(New(1, 3, []float64{2, 3, 4})) {
		t.Fatalf("AddInPlace: got %v", a)
	}
	a.AddScaledInPlace(-2, b)
	if !a.Equal(New(1, 3, []float64{0, 1, 2})) {
		t.Fatalf("AddScaledInPlace: got %v", a)
	}
}

func TestAddDiagonalAndTrace(t *testing.T) {
	m := Zeros(3, 3)
	d := m.Clone()
	d.AddDiagonalInPlace(2.5)
	if got := d.Trace(); got != 7.5 {
		t.Fatalf("Trace after AddDiagonalInPlace: got %g, want 7.5", got)
	}
	if m.Trace() != 0 {
		t.Fatal("AddDiagonalInPlace on a clone must not mutate the original")
	}
	m.AddDiagonalInPlace(1)
	if m.Trace() != 3 {
		t.Fatalf("AddDiagonalInPlace: trace %g, want 3", m.Trace())
	}
}

func TestFrobeniusNormAndMaxAbs(t *testing.T) {
	m := New(1, 2, []float64{3, -4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm: got %g, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs: got %g, want 4", got)
	}
}

func TestSumMean(t *testing.T) {
	m := New(2, 2, []float64{1, 2, 3, 4})
	if m.Sum() != 10 {
		t.Fatalf("Sum: got %g", m.Sum())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share backing data")
	}
}

func TestCopyFrom(t *testing.T) {
	a := Zeros(2, 2)
	b := New(2, 2, []float64{1, 2, 3, 4})
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestZero(t *testing.T) {
	m := Full(2, 2, 3)
	m.Zero()
	if m.Sum() != 0 {
		t.Fatal("Zero did not clear the matrix")
	}
}

func TestAllClose(t *testing.T) {
	a := New(1, 2, []float64{1, 2})
	b := New(1, 2, []float64{1.0000001, 2})
	if !a.AllClose(b, 1e-6) {
		t.Fatal("AllClose should accept within tolerance")
	}
	if a.AllClose(b, 1e-9) {
		t.Fatal("AllClose should reject beyond tolerance")
	}
	c := Zeros(2, 1)
	if a.AllClose(c, 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestIsSymmetricAndSymmetrize(t *testing.T) {
	s := New(2, 2, []float64{1, 2, 2, 5})
	if !s.IsSymmetric(0) {
		t.Fatal("expected symmetric")
	}
	a := New(2, 2, []float64{1, 2, 4, 5})
	if a.IsSymmetric(1e-12) {
		t.Fatal("expected asymmetric")
	}
	sym := a.Symmetrize()
	if !sym.IsSymmetric(0) {
		t.Fatal("Symmetrize result must be symmetric")
	}
	if sym.At(0, 1) != 3 {
		t.Fatalf("Symmetrize: got %g, want 3", sym.At(0, 1))
	}
	rect := Zeros(2, 3)
	if rect.IsSymmetric(1) {
		t.Fatal("rectangular matrix cannot be symmetric")
	}
}

func TestHasNaN(t *testing.T) {
	m := Zeros(2, 2)
	if m.HasNaN() {
		t.Fatal("zeros should not report NaN")
	}
	m.Set(0, 1, math.NaN())
	if !m.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
	m.Set(0, 1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("HasNaN missed Inf")
	}
}

func TestReshape(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r := m.Reshape(3, 2)
	if r.At(0, 0) != 1 || r.At(2, 1) != 6 {
		t.Fatalf("Reshape values wrong: %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid reshape")
		}
	}()
	m.Reshape(4, 2)
}

func TestRowColViews(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row: got %v", row)
	}
	row[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestStringElision(t *testing.T) {
	small := Eye(2)
	if s := small.String(); s == "" {
		t.Fatal("String produced empty output")
	}
	big := Zeros(20, 20)
	if s := big.String(); s == "" {
		t.Fatal("String on large matrix produced empty output")
	}
}
