package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Gaussian mean too far from 0: %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Gaussian variance too far from 1: %g", variance)
	}
}

func TestRandConstructors(t *testing.T) {
	r := NewRNG(5)
	m := RandN(r, 10, 10, 2)
	if m.Rows != 10 || m.Cols != 10 {
		t.Fatal("RandN shape wrong")
	}
	u := RandUniform(r, 5, 5, -1, 1)
	for _, v := range u.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("RandUniform out of range: %g", v)
		}
	}
	x := XavierInit(r, 64, 32)
	limit := math.Sqrt(6.0 / 96.0)
	for _, v := range x.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier out of range: %g (limit %g)", v, limit)
		}
	}
}

func TestRandSPDIsSPD(t *testing.T) {
	r := NewRNG(6)
	for n := 1; n <= 8; n++ {
		m := RandSPD(r, n, 0.1)
		if !m.IsSymmetric(1e-12) {
			t.Fatalf("RandSPD(%d) not symmetric", n)
		}
		if _, err := Cholesky(m); err != nil {
			t.Fatalf("RandSPD(%d) not positive definite: %v", n, err)
		}
	}
}
