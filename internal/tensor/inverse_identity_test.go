package tensor

import (
	"math"
	"testing"
)

// The blocked SPD inverse as it ran before its base blocks went to vector
// kernels and its small products to gemmDirect: every product on the pooled
// packed driver, every base block on the Go loops, the result mirrored
// element by element. It is kept as the test-only oracle the production
// path must equal bit for bit.

func oracleCholInverseFactor(w View, kern Kernel) error {
	n := w.rows
	n1 := blockedSplit(n, invNB)
	if n1 == 0 {
		n1 = blockedSplit(n, baseBlock(kern))
	}
	if n1 == 0 {
		a, l := Zeros(n, n), Zeros(n, n)
		for i := 0; i < n; i++ {
			copy(a.Data[i*n:i*n+i+1], w.data[i*w.ld:])
		}
		if err := choleskyInto(l, a); err != nil {
			return err
		}
		triInvInto(a, l)
		for i := 0; i < n; i++ {
			row := w.data[i*w.ld : i*w.ld+n]
			copy(row, a.Data[i*n:i*n+i+1])
			clear(row[i+1:])
		}
		return nil
	}
	n2 := n - n1
	w11, w21, w22 := w.sub(0, 0, n1, n1), w.sub(n1, 0, n2, n1), w.sub(n1, n1, n2, n2)
	if err := oracleCholInverseFactor(w11, kern); err != nil {
		return err
	}
	y, z := Zeros(n1, n2), Zeros(n1, n2)
	gemmPacked(viewOf(y), w11, w21, gemmBT|gemmALower|gemmF64, kern)
	gemmPacked(w22, viewOf(y), viewOf(y), gemmAT|gemmAcc|gemmNeg|gemmLower|gemmF64, kern)
	if err := oracleCholInverseFactor(w22, kern); err != nil {
		return err
	}
	gemmPacked(viewOf(z), w11, viewOf(y), gemmAT|gemmAUpper|gemmF64, kern)
	gemmPacked(w21, w22, viewOf(z), gemmBT|gemmALower|gemmNeg|gemmF64, kern)
	return nil
}

// oracleSPDInverse is SPDInverseInto by the oracle, with its damping
// escalation; it returns the damping the result was computed with.
func oracleSPDInverse(dst, m *Matrix, damping float64) (float64, error) {
	kern := ActiveKernel()
	n := m.Rows
	d := damping
	for try := 0; try < spdAttempts; try++ {
		work := m.Clone()
		if d > 0 {
			work.AddDiagonalInPlace(d)
		}
		var err error
		if n <= baseBlock(kern) {
			err = invertScalar(dst, work)
		} else if err = oracleCholInverseFactor(viewOf(work), kern); err == nil {
			w := viewOf(work)
			gemmPacked(viewOf(dst), w, w, gemmAT|gemmAUpper|gemmLower|gemmF64, kern)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					dst.Data[j*n+i] = dst.Data[i*n+j]
				}
			}
		}
		if err == nil {
			return d, nil
		}
		if d == 0 {
			d = 1e-8 * math.Max(1, m.MaxAbs())
		} else {
			d *= 10
		}
	}
	return d, ErrNotSPD
}

// identitySizes is every n of 1..64 — all the sizes whose inverse is one
// step and whose products all run on gemmDirect under fma, multiples of 8
// and 16 and the rest — and chained sizes around 64 and 128.
func identitySizes() []int {
	var ns []int
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	return append(ns, 65, 72, 80, 96, 127, 128, 130, 200)
}

// TestSPDInverseMatchesOracle: the inverse — the vector base blocks,
// gemmDirect's small products, the packer-transposed mirror — equals the
// oracle bit for bit at every n in 1..64 and at chained sizes, under every
// kernel variant and under fma at both tile widths, for well-conditioned,
// damped rank-deficient and zero-damping rank-deficient inputs (the last
// escalate the damping from inside a base block, so the oracle's final
// damping is the one the result must match). The chain is stepped one op at
// a time with unrelated pooled GEMM work between the steps.
func TestSPDInverseMatchesOracle(t *testing.T) {
	defer restoreKernelConfig()()
	noise := RandN(NewRNG(5), 72, 60, 1)
	interleave := func() { Put(MatMul(noise, TMatMul(noise, noise))) }
	type setting struct {
		kern Kernel
		wide bool
	}
	var settings []setting
	for _, k := range AvailableKernels() {
		settings = append(settings, setting{k, false})
		if k == KernelFMA && haveAVX512Kernels {
			settings = append(settings, setting{k, true})
		}
	}
	sizes := identitySizes()
	if raceEnabled {
		sizes = []int{1, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 130}
	}
	for _, st := range settings {
		if err := SetKernel(st.kern); err != nil {
			t.Fatal(err)
		}
		fmaWide.Store(st.wide)
		for _, n := range sizes {
			for ci, c := range []struct {
				tokens  int
				jitter  float64
				damping float64
			}{
				{2*n + 3, 1, 1e-3},        // well conditioned
				{max(n/2, 1), 1e-2, 1e-3}, // damped, rank deficient: the K-FAC case
				{max(n/3, 1), 0, 0},       // rank deficient at damping 0: escalates
			} {
				m := spdCase(uint64(100*n+ci), n, c.tokens, c.jitter)
				want := Full(n, n, 42)
				if _, err := oracleSPDInverse(want, m, c.damping); err != nil {
					t.Fatalf("%v wide=%v n=%d case %d: oracle: %v", st.kern, st.wide, n, ci, err)
				}
				var ch InverseChain
				if err := ch.Start(m, c.damping); err != nil {
					t.Fatal(err)
				}
				got := Full(n, n, 7)
				for ch.Active() {
					interleave()
					if err := ch.Step(got); err != nil {
						t.Fatalf("%v wide=%v n=%d case %d: %v", st.kern, st.wide, n, ci, err)
					}
				}
				if !sameBits(want, got) {
					t.Fatalf("%v wide=%v n=%d case %d: inverse differs from the oracle (max %g)",
						st.kern, st.wide, n, ci, want.Sub(got).MaxAbs())
				}
			}
		}
	}
}

// TestBaseKernelsMatchGoLoops holds the vector base-block kernels to
// choleskyInto and triInvInto directly, at every block size 1..16, for
// factorizations that succeed and for ones that must fail at a chosen pivot
// (negative, zero and NaN) — the kernel must fail exactly when the Go loop
// does.
func TestBaseKernelsMatchGoLoops(t *testing.T) {
	if !haveFMAKernels {
		t.Skip("no fma kernels on this host or build")
	}
	for n := 1; n <= fmaNB; n++ {
		for ci := 0; ci < 5; ci++ {
			m := spdCase(uint64(7*n+ci), n, 2*n+1, 0.5)
			if ci >= 2 {
				// Spoil one pivot: the factorization must stop there.
				p := (n - 1) * (ci - 2) / 2
				m.Set(p, p, []float64{-1, 0, math.NaN()}[ci-2])
			}
			l := Full(n, n, 0)
			wantErr := choleskyInto(l, m)
			var s [2 * fmaNB * fmaNB]float64
			tb, r := s[:fmaNB*fmaNB], s[fmaNB*fmaNB:]
			for i := range tb {
				tb[i] = math.NaN() // what the kernel must not read
			}
			packRowsVec(tb, fmaNB, m.Data, n, 0, n, 0, n)
			ok := cholBaseFMA(tb, n)
			if ok != (wantErr == nil) {
				t.Fatalf("n=%d case %d: cholBaseFMA ok=%v, choleskyInto err=%v", n, ci, ok, wantErr)
			}
			if !ok {
				continue
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if math.Float64bits(tb[j*fmaNB+i]) != math.Float64bits(l.Data[i*n+j]) {
						t.Fatalf("n=%d case %d: L[%d][%d] = %v, choleskyInto %v", n, ci, i, j, tb[j*fmaNB+i], l.Data[i*n+j])
					}
				}
			}
			linv := Full(n, n, 0)
			triInvInto(linv, l)
			for i := range r {
				r[i] = math.NaN()
			}
			triInvBaseFMA(r, tb, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if math.Float64bits(r[i*fmaNB+j]) != math.Float64bits(linv.Data[i*n+j]) {
						t.Fatalf("n=%d case %d: L⁻¹[%d][%d] = %v, triInvInto %v", n, ci, i, j, r[i*fmaNB+j], linv.Data[i*n+j])
					}
				}
			}
		}
	}
}
