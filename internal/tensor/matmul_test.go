package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := New(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul: got %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(7)
	m := RandN(r, 5, 5, 1)
	if !MatMul(m, Eye(5)).AllClose(m, 1e-12) {
		t.Fatal("m * I != m")
	}
	if !MatMul(Eye(5), m).AllClose(m, 1e-12) {
		t.Fatal("I * m != m")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	MatMul(Zeros(2, 3), Zeros(2, 3))
}

func TestMatMulIntoShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong destination shape")
		}
	}()
	MatMulInto(Zeros(3, 3), Zeros(2, 3), Zeros(3, 2))
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(3)
	a := RandN(r, 4, 6, 1)
	b := RandN(r, 5, 6, 1)
	got := MatMulT(a, b)
	want := MatMul(a, b.T())
	if !got.AllClose(want, 1e-12) {
		t.Fatal("MatMulT disagrees with MatMul(a, b.T())")
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(4)
	a := RandN(r, 6, 4, 1)
	b := RandN(r, 6, 5, 1)
	got := TMatMul(a, b)
	want := MatMul(a.T(), b)
	if !got.AllClose(want, 1e-12) {
		t.Fatal("TMatMul disagrees with MatMul(a.T(), b)")
	}
}

func TestMatVecAndVecMat(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := MatVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MatVec: got %v", got)
	}
}

func TestOuterAndDot(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4, 5}
	o := Outer(x, y)
	want := New(2, 3, []float64{3, 4, 5, 6, 8, 10})
	if !o.Equal(want) {
		t.Fatalf("Outer: got %v", o)
	}
	if Dot(x, []float64{10, 100}) != 210 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: (AB)C == A(BC) for random small matrices (associativity).
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(6)
		k := 1 + r.Intn(6)
		p := 1 + r.Intn(6)
		q := 1 + r.Intn(6)
		a := RandN(r, n, k, 1)
		b := RandN(r, k, p, 1)
		c := RandN(r, p, q, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.AllClose(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)^T == B^T A^T.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(6)
		k := 1 + r.Intn(6)
		p := 1 + r.Intn(6)
		a := RandN(r, n, k, 1)
		b := RandN(r, k, p, 1)
		left := MatMul(a, b).T()
		right := MatMul(b.T(), a.T())
		return left.AllClose(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: distributivity A(B+C) == AB + AC.
func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(5)
		k := 1 + r.Intn(5)
		p := 1 + r.Intn(5)
		a := RandN(r, n, k, 1)
		b := RandN(r, k, p, 1)
		c := RandN(r, k, p, 1)
		left := MatMul(a, b.Add(c))
		right := MatMul(a, b).Add(MatMul(a, c))
		return left.AllClose(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
