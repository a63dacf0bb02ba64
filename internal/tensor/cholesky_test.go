package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestCholeskyKnown(t *testing.T) {
	// m = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
	m := New(2, 2, []float64{4, 2, 2, 3})
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt(2)) > 1e-12 || l.At(0, 1) != 0 {
		t.Fatalf("Cholesky factor wrong: %v", l)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	r := NewRNG(11)
	for n := 1; n <= 10; n++ {
		m := RandSPD(r, n, 0.5)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := MatMulT(l, l)
		if !recon.AllClose(m, 1e-8) {
			t.Fatalf("n=%d: L L^T != m (max err %g)", n, recon.Sub(m).MaxAbs())
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	m := New(2, 2, []float64{1, 2, 2, 1}) // indefinite (eigenvalues 3, -1)
	if _, err := Cholesky(m); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestCholeskyRejectsRectangular(t *testing.T) {
	if _, err := Cholesky(Zeros(2, 3)); err == nil {
		t.Fatal("expected error for rectangular input")
	}
}

func TestSPDInverseRescuesSingular(t *testing.T) {
	// Rank-1 matrix: needs damping to invert.
	x := []float64{1, 2, 3}
	m := Outer(x, x)
	inv, err := SPDInverse(m, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if inv.HasNaN() {
		t.Fatal("SPDInverse produced NaN")
	}
	// The damped inverse must satisfy (m + dI) inv ≈ I for some d >= 1e-3,
	// which in particular means inv is SPD itself.
	if _, err := Cholesky(inv.Symmetrize()); err != nil {
		t.Fatalf("damped inverse is not SPD: %v", err)
	}
}

func TestSPDInverseZeroDampingEscalates(t *testing.T) {
	m := Zeros(3, 3) // singular; zero damping must escalate internally
	inv, err := SPDInverse(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inv.HasNaN() {
		t.Fatal("NaN in rescued inverse")
	}
}

func TestSPDInverseRejectsBadArguments(t *testing.T) {
	if _, err := SPDInverse(Eye(2), -1); err == nil {
		t.Fatal("expected error for negative damping")
	}
	if _, err := SPDInverse(Zeros(2, 3), 0); err == nil {
		t.Fatal("expected error for rectangular input")
	}
	if err := SPDInverseInto(Zeros(3, 3), Eye(2), 0); err == nil {
		t.Fatal("expected error for mismatched dst")
	}
}

// The generated inverse suite: every size around the block boundaries times
// a conditioning ladder, checked against the scalar pipeline (invertScalar:
// the production path up to the variant's base block, the oracle above it).

var inverseSizes = []int{1, 2, 63, 64, 65, 127, 128, 200, 256, 511, 512, 513}

// spdCase builds an n x n SPD matrix Q^T Q / tokens + jitter*I from a
// tokens x n Gaussian Q — the shape of a damped K-FAC factor. tokens < n
// makes Q^T Q rank deficient, so jitter sets the condition number.
func spdCase(seed uint64, n, tokens int, jitter float64) *Matrix {
	q := RandN(NewRNG(seed), tokens, n, 1)
	m := TMatMul(q, q)
	m.ScaleInPlace(1 / float64(tokens))
	m.AddDiagonalInPlace(jitter)
	return m
}

// oracleInverse is the scalar pipeline at any n.
func oracleInverse(t testing.TB, m *Matrix) *Matrix {
	t.Helper()
	out := Zeros(m.Rows, m.Rows)
	if err := invertScalar(out, m.Clone()); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out
}

// residual returns max |m*inv - I|.
func residual(m, inv *Matrix) float64 {
	p := MatMul(m, inv)
	defer Put(p)
	return p.Sub(Eye(m.Rows)).MaxAbs()
}

func TestSPDInverseGenerated(t *testing.T) {
	conds := []struct {
		name   string
		jitter float64
		full   bool // tokens >= n: full-rank Gram
	}{
		{"wellconditioned", 1, true},
		{"damped-rankdeficient", 1e-2, false}, // the real K-FAC case
		{"illconditioned", 1e-5, false},
	}
	for _, n := range inverseSizes {
		for ci, c := range conds {
			t.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(t *testing.T) {
				tokens := n/4 + 1
				if c.full {
					tokens = 2*n + 3
				}
				m := spdCase(uint64(1000*n+ci), n, tokens, c.jitter)
				want := oracleInverse(t, m)
				withKernels(t, func(t *testing.T, exact bool) {
					got, err := SPDInverse(m, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got.HasNaN() || !got.IsSymmetric(0) {
						t.Fatal("inverse has NaN or is not exactly symmetric")
					}
					// cond <= (maxeig + jitter)/jitter; the residual of a
					// backward-stable inverse grows with it.
					cond := (m.MaxAbs()*float64(n) + c.jitter) / c.jitter
					if res, bound := residual(m, got), 1e-13*float64(n)*cond; res > bound {
						t.Fatalf("|m*inv - I| = %g exceeds %g", res, bound)
					}
					if nb := baseBlock(ActiveKernel()); n <= nb {
						if !got.Equal(want) {
							t.Fatalf("n <= %d must be bit-identical to the scalar pipeline (max diff %g)",
								nb, got.Sub(want).MaxAbs())
						}
						return
					}
					// Above the base case the blocked form reorders the
					// reductions: agreement with the oracle is relative
					// to the inverse's scale, again growing with cond.
					rel := got.Sub(want).MaxAbs() / want.MaxAbs()
					if bound := 1e-14 * float64(n) * cond; rel > bound {
						t.Fatalf("blocked vs scalar oracle: relative diff %g exceeds %g", rel, bound)
					}
				})
			})
		}
	}
}

// Every variant must be bit-identical across worker counts and per-op
// caps. The sizes up to 64 straddle fma's 16-row base block; there tiled
// never leaves the Go base loops. Tiled's inverses, every size, hash to the
// digest recorded at dd6427f (then under the scalar loops the tiled kernel
// is bit-identical to), the commit before fma's base block shrank, so a
// green run proves tiled did not move.
func TestSPDInverseVariantAndParallelismIdentity(t *testing.T) {
	const wantTiled = "aed50b3d6abdc1a72db3bc60498ce4a7662a7e7c7b184983106a7d51a321d3fb"
	def := ActiveKernel()
	defer SetKernel(def)
	h := sha256.New()
	for _, n := range []int{1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200, 256, 513} {
		// Built under tiled: the inputs, and so the digest, must not
		// depend on the build's default variant.
		if err := SetKernel(KernelTiled); err != nil {
			t.Fatal(err)
		}
		m := spdCase(uint64(n), n, n/4+1, 1e-2)
		ref := map[string]*Matrix{}
		for _, c := range kernelCases() {
			if err := c.use(); err != nil {
				t.Fatal(err)
			}
			withParallelism(t, func(t *testing.T) {
				got, err := SPDInverse(m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ref[c.name] == nil {
					ref[c.name] = got
				} else if !got.Equal(ref[c.name]) {
					t.Fatalf("n=%d kernel=%s: result depends on parallelism (max diff %g)",
						n, c.name, got.Sub(ref[c.name]).MaxAbs())
				}
			})
		}
		if !ref["scalar"].Equal(ref["tiled"]) {
			t.Fatalf("n=%d: scalar and tiled inverses differ (max %g)",
				n, ref["scalar"].Sub(ref["tiled"]).MaxAbs())
		}
		for _, v := range ref["tiled"].Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
		if fma := ref["fma"]; fma != nil {
			if rel := fma.Sub(ref["tiled"]).MaxAbs() / fma.MaxAbs(); rel > 1e-9 {
				t.Fatalf("n=%d: fma inverse outside fused-rounding tolerance (rel %g)", n, rel)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTiled {
		t.Fatalf("tiled inverses hash to %s, want %s", got, wantTiled)
	}
}

// Inverses stay float64 under SetF32: the result must be bit-equal with the
// mode on and off (the blocked path pins the float64 micro-kernels).
func TestSPDInverseIgnoresF32(t *testing.T) {
	for _, n := range []int{48, 200, 512} {
		m := spdCase(uint64(n), n, n/4+1, 1e-2)
		withKernels(t, func(t *testing.T, _ bool) {
			want, err := SPDInverse(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			withF32(t, func(t *testing.T) {
				got, err := SPDInverse(m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("n=%d: SetF32 changed the inverse (max diff %g)", n, got.Sub(want).MaxAbs())
				}
			})
		})
	}
}

// Rank-deficient input above the block size (tokens < factor dimension and
// no damping) must take the damping rescue, and a matrix whose leading
// blocks are fine but whose trailing block is indefinite must surface
// ErrNotSPD from that block — never a NaN.
func TestSPDInverseBlockedRescueAndRejection(t *testing.T) {
	const n = 200
	q := RandN(NewRNG(5), 40, n, 1)
	gram := TMatMul(q, q) // rank 40 < 200
	inv, err := SPDInverse(gram, 0)
	if err != nil {
		t.Fatalf("rank-deficient factor not rescued: %v", err)
	}
	if inv.HasNaN() || !inv.IsSymmetric(0) {
		t.Fatal("rescued inverse has NaN or is asymmetric")
	}

	bad := Eye(n)
	bad.Set(n-1, n-1, -1) // indefinite only in the last diagonal block
	work := bad.Clone()
	if err := invertBlocked(Zeros(n, n), work, ActiveKernel()); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("blocked path: expected ErrNotSPD, got %v", err)
	}
	// Escalating damping rescues any finite input in the end; a NaN in the
	// last block row is beyond rescue and must exhaust the attempts.
	nan := Eye(n)
	nan.Set(n-1, 3, math.NaN())
	if _, err := SPDInverse(nan, 0); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("NaN input: expected ErrNotSPD, got %v", err)
	}
}

// A 48-wide factor whose leading rows are well conditioned but whose
// trailing block is indefinite: under fma it takes the blocked form (16 + 32
// rows) and the non-positive pivot is a trailing Schur complement's, under
// tiled it is the scalar pipeline's last pivot. Every variant
// must escalate the damping until the factorization succeeds and return a
// finite inverse of the damped input — never a NaN.
func TestSPDInverseSmallBlockedRescue(t *testing.T) {
	const n = 48
	m := spdCase(48, n, 2*n+3, 1)
	m.Set(n-1, n-1, -1)
	withKernels(t, func(t *testing.T, _ bool) {
		dst := Zeros(n, n)
		var c InverseChain
		if err := c.Start(m, 0); err != nil {
			t.Fatal(err)
		}
		for c.Active() {
			if err := c.Step(dst); err != nil {
				t.Fatal(err)
			}
		}
		if c.damping == 0 {
			t.Fatal("the indefinite trailing block did not escalate the damping")
		}
		if dst.HasNaN() || !dst.IsSymmetric(0) {
			t.Fatal("rescued inverse has NaN or is asymmetric")
		}
		damped := m.Clone()
		damped.AddDiagonalInPlace(c.damping)
		if res := residual(damped, dst); res > 1e-10 {
			t.Fatalf("|(m + %g I) inv - I| = %g", c.damping, res)
		}
	})
}

// All blocked-path temporaries are pooled and returned, on success and on
// failure. (BenchmarkSPDInverse gates the steady state at 0 allocs/op.)
func TestSPDInverseIntoReturnsPooledTemporaries(t *testing.T) {
	const n = 200
	m := spdCase(3, n, 51, 1e-2)
	bad := Eye(n)
	bad.Set(n-1, 3, math.NaN())
	dst := Zeros(n, n)
	SetPoolAudit(true)
	defer SetPoolAudit(false)
	if err := SPDInverseInto(dst, m, 0); err != nil {
		t.Fatal(err)
	}
	if err := SPDInverseInto(dst, bad, 0); err == nil {
		t.Fatal("expected failure")
	}
	if live := PoolLive(); live != 0 {
		t.Fatalf("PoolLive = %d after SPDInverseInto, want 0", live)
	}
}

// The lower-tiles-only Gram product must equal the full product bit for
// bit, for both Snap widths and every kernel variant: TMatMulInto(u, u)
// whole, Snap.GramInto in its lower triangle (its upper one is unspecified
// until the mirror a fold applies, which then restores the full product).
func TestGramMatchesFullProduct(t *testing.T) {
	r := NewRNG(9)
	for _, sh := range []struct{ rows, cols int }{{1, 1}, {5, 3}, {40, 65}, {256, 128}, {33, 200}} {
		u := RandN(r, sh.rows, sh.cols, 1)
		twin := u.Clone() // a distinct pointer takes the full-product path
		withKernels(t, func(t *testing.T, _ bool) {
			defer SetF32(false)
			for _, f32 := range []bool{false, true} {
				SetF32(f32)
				want := Zeros(sh.cols, sh.cols)
				TMatMulInto(want, u, twin)
				got := Zeros(sh.cols, sh.cols)
				TMatMulInto(got, u, u)
				if !got.Equal(want) {
					t.Fatalf("%dx%d f32=%v: TMatMul(u,u) differs from the full product", sh.rows, sh.cols, f32)
				}
				snap := SnapClone(u)
				got.Zero()
				snap.GramInto(got)
				got.MirrorLower()
				snap.Release()
				if f32 {
					// A float32 Snap narrows u once more; the full
					// product of the narrowed-then-widened u is the twin.
					w := Zeros(sh.rows, sh.cols)
					for i, v := range u.Data {
						w.Data[i] = float64(float32(v))
					}
					TMatMulInto(want, w, w.Clone())
				}
				if !got.Equal(want) {
					t.Fatalf("%dx%d f32=%v: Snap.GramInto differs from the full product", sh.rows, sh.cols, f32)
				}
			}
		})
	}
}

// FuzzSPDInverse drives the inverse with seeded (n, scale, rank) draws:
// whatever the draw, the call must either fail with ErrNotSPD or return a
// finite, exactly symmetric matrix that inverts the damped input. At
// n <= 64 — half the draws: the one-step inverses whose base blocks run the
// vector kernels and whose products run on gemmDirect under fma — it must
// also fail exactly when the blocked oracle (inverse_identity_test.go) does
// and otherwise equal it bit for bit.
func FuzzSPDInverse(f *testing.F) {
	f.Add(uint64(1), uint16(1), int8(0), uint16(1))
	f.Add(uint64(2), uint16(64), int8(3), uint16(64))
	f.Add(uint64(3), uint16(65), int8(-3), uint16(7))
	f.Add(uint64(4), uint16(130), int8(0), uint16(0))
	f.Add(uint64(5), uint16(257), int8(6), uint16(300))
	f.Add(uint64(6), uint16(16), int8(0), uint16(5))
	f.Add(uint64(7), uint16(16+17*2), int8(-6), uint16(40))
	f.Add(uint64(8), uint16(47+64*2), int8(8), uint16(2))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, scaleExp int8, rank uint16) {
		n := 1 + int(size)%300
		if size%2 == 1 {
			n = 1 + int(size/2)%64
		}
		tokens := int(rank) % (2*n + 1) // 0 (the zero matrix) .. full rank
		scale := math.Pow(10, float64(scaleExp%9))
		m := Zeros(n, n)
		if tokens > 0 {
			q := RandN(NewRNG(seed), tokens, n, scale)
			TMatMulInto(m, q, q)
		}
		damping := 1e-3 * scale * scale
		inv, err := SPDInverse(m, damping)
		if n <= invNB {
			want := Zeros(n, n)
			_, werr := oracleSPDInverse(want, m, damping)
			if (err == nil) != (werr == nil) {
				t.Fatalf("n=%d: inverse error %v, oracle error %v", n, err, werr)
			}
			if err == nil && !sameBits(inv, want) {
				t.Fatalf("n=%d: inverse differs from the blocked oracle (max %g)", n, inv.Sub(want).MaxAbs())
			}
		}
		if err != nil {
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if inv.HasNaN() || !inv.IsSymmetric(0) {
			t.Fatal("inverse has NaN or is asymmetric")
		}
		// The rescue may have grown the damping; the inverse must still be
		// positive definite and no larger than 1/damping.
		if _, err := Cholesky(inv); err != nil {
			t.Fatalf("inverse is not SPD: %v", err)
		}
		if mx := inv.MaxAbs(); mx > 1.001/damping {
			t.Fatalf("inverse entry %g exceeds 1/damping = %g", mx, 1/damping)
		}
		if n > baseBlock(ActiveKernel()) {
			damped := m.Clone()
			damped.AddDiagonalInPlace(damping)
			want := oracleInverse(t, damped)
			if rel := inv.Sub(want).MaxAbs() / want.MaxAbs(); rel > 1e-6 {
				t.Fatalf("n=%d: blocked vs scalar oracle relative diff %g", n, rel)
			}
		}
	})
}
