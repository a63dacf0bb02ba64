package tensor

import (
	"testing"
	"testing/quick"
)

func TestKronKnown(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2, []float64{0, 5, 6, 7})
	got := Kron(a, b)
	want := New(4, 4, []float64{
		0, 5, 0, 10,
		6, 7, 12, 14,
		0, 15, 0, 20,
		18, 21, 24, 28,
	})
	if !got.Equal(want) {
		t.Fatalf("Kron: got %v, want %v", got, want)
	}
}

func TestKronIdentity(t *testing.T) {
	r := NewRNG(23)
	m := RandN(r, 3, 3, 1)
	// I1 ⊗ m == m.
	if !Kron(Eye(1), m).AllClose(m, 0) {
		t.Fatal("I1 ⊗ m != m")
	}
}

func TestVecUnvecRoundTrip(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := VecColMajor(m)
	// Column-major stacking: columns in order.
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("VecColMajor: got %v, want %v", v, want)
		}
	}
}

// The central K-FAC identity (§2.3.1): (A ⊗ B) vec(X) = vec(B X A^T).
// KronMatVec must agree with the explicit Kronecker-product computation.
func TestKronMatVecIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		da := 1 + r.Intn(5) // A is da x da
		db := 1 + r.Intn(5) // B is db x db
		a := RandN(r, da, da, 1)
		b := RandN(r, db, db, 1)
		x := RandN(r, db, da, 1)
		// Explicit: (A ⊗ B) vec(X).
		kron := Kron(a, b)
		explicit := MatVec(kron, VecColMajor(x))
		// Fast path.
		y := KronMatVec(a, b, x)
		fast := VecColMajor(y)
		if len(explicit) != len(fast) {
			return false
		}
		for i := range explicit {
			if diff := explicit[i] - fast[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A ⊗ B)^{-1} == A^{-1} ⊗ B^{-1} for SPD A, B — the property the
// paper exploits to avoid inverting P_l x P_l matrices.
func TestKronInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		da := 1 + r.Intn(4)
		db := 1 + r.Intn(4)
		a := RandSPD(r, da, 1)
		b := RandSPD(r, db, 1)
		ainv, err := SPDInverse(a, 0)
		if err != nil {
			return false
		}
		binv, err := SPDInverse(b, 0)
		if err != nil {
			return false
		}
		left, err := SPDInverse(Kron(a, b).Symmetrize(), 0)
		if err != nil {
			return false
		}
		right := Kron(ainv, binv)
		return left.AllClose(right, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKronMatVecShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched X shape")
		}
	}()
	KronMatVec(Eye(2), Eye(3), Zeros(2, 2))
}
