package tensor

import (
	"errors"
	"fmt"
	"math"
)

// SPD inversion, the K-FAC inversion unit (§2.3.1: torch.linalg.cholesky
// then cholesky_inverse per Kronecker factor). A⁻¹ is assembled as M^T M
// with M = L⁻¹ and A = L L^T, in two regimes around the variant's base
// block nb (baseBlock: invNB = 64 under KernelTiled, fmaNB = 16 under
// KernelFMA):
//
//   - n <= nb: the scalar loops below (dot-product Cholesky, triangular
//     inverse, M^T M), each element one ascending-k reduction; under
//     KernelFMA the Cholesky and the triangular inverse run as vector
//     kernels that store the loops' bits (cholesky_amd64.s).
//   - n > nb: a recursive blocked form whose every O(n³) term is a call
//     into the packed GEMM driver (gemm.go) on sub-block views — gemmDirect
//     inside a block of at most invNB rows. Splitting
//     A = [A11 A21^T; A21 A22] at a multiple of invNB (of nb once the
//     block is at most invNB rows),
//
//	M11 = chol-inverse(A11)                  (recursion)
//	Y   = M11 A21^T            (= L21^T)     op(a) lower triangular
//	A22 -= Y^T Y               (Schur)       lower tiles only
//	M22 = chol-inverse(A22)                  (recursion)
//	Z   = M11^T Y                            op(a) upper triangular
//	M21 = -M22 Z^T                           op(a) lower triangular
//
//     turns the block in place into M, and A⁻¹ = M^T M is one more
//     lower-tiles-only product, mirrored. The scalar loops survive as the
//     base case on the <= nb diagonal blocks (Cholesky and triangular
//     inverse only), so ErrNotSPD still comes from a non-positive pivot —
//     now possibly of a trailing block's Schur complement.
//
// Under tiled a factor of at most 64 rows therefore never leaves the
// scalar loops; under fma every factor wider than 16 runs its
// Cholesky, triangular inverse and M^T M on the FMA micro-kernels.
//
// InverseChain exposes the top-level steps of the blocked form (the six
// lines above, then M^T M) as separate calls; SPDInverseInto is the chain
// run to its end in one. The top-level split, and with it the chain's step
// count and InverseChainFLOPs, is keyed to invNB under every variant.
//
// The blocked path pins the float64 micro-kernels (inverses stay float64
// under SetF32); KernelTiled's Go micro-kernel is bit-identical to a naive
// ascending-k product, KernelFMA differs by fused rounding only. Split
// points, tile grids and k ranges depend on n and the variant alone, so
// results are bit-identical across SetParallelism/SetOpParallelism per
// variant, and the result is exactly symmetric by construction.

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the input is not symmetric positive definite
// (within floating-point tolerance).
var ErrNotSPD = errors.New("tensor: matrix is not symmetric positive definite")

// invNB is the blocked inverse's block size: the recursion splits at
// multiples of it, and under tiled hands blocks of at most invNB rows to
// the scalar base case. It alone places the top-level split.
const invNB = 64

// fmaNB is KernelFMA's base block: a block of at most invNB rows splits at
// multiples of fmaNB, down to diagonal blocks of at most fmaNB rows.
const fmaNB = 16

// baseBlock is the largest block the variant inverts in the scalar loops.
func baseBlock(kern Kernel) int {
	if kern == KernelFMA {
		return fmaNB
	}
	return invNB
}

// Cholesky computes the lower-triangular factor L such that m = L L^T.
// m must be square and symmetric positive definite; otherwise ErrNotSPD is
// returned. Only the lower triangle of m is read, mirroring the convention
// of LAPACK's dpotrf and torch.linalg.cholesky, which the paper invokes for
// every Kronecker factor (§2.3.1).
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("tensor: Cholesky requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	l := Zeros(m.Rows, m.Rows)
	if err := choleskyInto(l, m); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors m into the caller-provided lower-triangular buffer l
// (shape n x n). Only l's lower triangle is written or read, so l may come
// from the workspace pool with unspecified contents; callers that expose l
// beyond the lower triangle must zero it first.
func choleskyInto(l, m *Matrix) error {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			lrow := l.Data[i*n : i*n+j]
			ljrow := l.Data[j*n : j*n+j]
			for k, v := range lrow {
				s += float64(v * ljrow[k])
			}
			if i == j {
				d := m.Data[i*n+i] - s
				if d <= 0 || math.IsNaN(d) {
					return ErrNotSPD
				}
				l.Data[i*n+j] = math.Sqrt(d)
			} else {
				l.Data[i*n+j] = (m.Data[i*n+j] - s) / l.Data[j*n+j]
			}
		}
	}
	return nil
}

// triInvInto writes the inverse of the lower-triangular l into linv's
// lower triangle; neither matrix's upper triangle is touched.
func triInvInto(linv, l *Matrix) {
	n := l.Rows
	for i := 0; i < n; i++ {
		linv.Data[i*n+i] = 1 / l.Data[i*n+i]
		for j := 0; j < i; j++ {
			var s float64
			for k := j; k < i; k++ {
				s += float64(l.Data[i*n+k] * linv.Data[k*n+j])
			}
			linv.Data[i*n+j] = -s / l.Data[i*n+i]
		}
	}
}

// invertScalar overwrites dst with work⁻¹ using the scalar loops alone —
// the whole pipeline for n <= baseBlock under tiled, and the
// oracle the blocked path is tested against. Only work's lower triangle is
// read; it is destroyed.
func invertScalar(dst, work *Matrix) error {
	n := work.Rows
	l := Get(n, n)
	defer Put(l)
	if err := choleskyInto(l, work); err != nil {
		return err
	}
	triInvInto(work, l)
	mulTLower(dst, work)
	return nil
}

// mulTLower overwrites dst with linv^T linv from the lower triangle of
// linv, filling the upper triangle and mirroring it. linv is lower
// triangular, so row k has nonzeros up to column k.
func mulTLower(dst, linv *Matrix) {
	n := linv.Rows
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for k := j; k < n; k++ {
				s += float64(linv.Data[k*n+i] * linv.Data[k*n+j])
			}
			dst.Data[i*n+j] = s
			dst.Data[j*n+i] = s
		}
	}
}

// invertBase is the whole inverse of a block of at most baseBlock rows:
// invertScalar, or under fma the vector base block and then mulTLower.
// Only work's lower triangle is read; it is destroyed.
func invertBase(dst, work *Matrix, kern Kernel) error {
	if kern != KernelFMA {
		return invertScalar(dst, work)
	}
	if err := cholInverseFactorBase(viewOf(work), kern, nil); err != nil {
		return err
	}
	mulTLower(dst, work)
	return nil
}

// directScratch is the buffer a block of at most invNB rows inverts in
// (cholInverseFactor's Y and Z at every level, the base blocks' buffers and
// every product's panels, gemmDirect): the largest need is its M^T M —
// B's panels and the A block, invNB² each, plus one 8x16 edge tile.
const directScratch = 2*invNB*invNB + 8*16

// cholInverseFactor replaces the SPD block w (lower triangle read) by
// M = L⁻¹, w = L L^T, in w's lower triangle. Above the diagonal only the
// diagonal blocks' entries are defined (zero), which is all the
// triangular GEMM variants read. With s nil a block of at most invNB rows
// that splits takes a pooled directScratch buffer and runs in it: its
// products on gemmDirect, its Y and Z in the buffer. Larger blocks multiply
// on the packed driver.
func cholInverseFactor(w View, kern Kernel, s []float64) error {
	n := w.rows
	if s == nil && n <= invNB && n > baseBlock(kern) {
		b := Get(1, directScratch)
		defer Put(b)
		s = b.Data
	}
	n1 := blockedSplit(n, invNB)
	if n1 == 0 {
		n1 = blockedSplit(n, baseBlock(kern))
	}
	if n1 == 0 {
		return cholInverseFactorBase(w, kern, s)
	}
	n2 := n - n1
	w11, w21, w22 := w.sub(0, 0, n1, n1), w.sub(n1, 0, n2, n1), w.sub(n1, n1, n2, n2)
	if err := cholInverseFactor(w11, kern, s); err != nil {
		return err
	}
	var y, z View
	if s != nil {
		y, z = View{s, n1, n2, n2}, View{s[n1*n2:], n1, n2, n2}
		s = s[2*n1*n2:]
	} else {
		ym, zm := Get(n1, n2), Get(n1, n2)
		defer Put(ym)
		defer Put(zm)
		y, z = viewOf(ym), viewOf(zm)
	}
	blockMul(y, w11, w21, gemmBT|gemmALower|gemmF64, kern, s)
	blockMul(w22, y, y, gemmAT|gemmAcc|gemmNeg|gemmLower|gemmF64, kern, s)
	if err := cholInverseFactor(w22, kern, s); err != nil {
		return err
	}
	blockMul(z, w11, y, gemmAT|gemmAUpper|gemmF64, kern, s)
	blockMul(w21, w22, z, gemmBT|gemmALower|gemmNeg|gemmF64, kern, s)
	return nil
}

// blockMul runs one product of the blocked inverse: gemmDirect in s, or
// gemmPacked when s is nil.
func blockMul(dst, a, b View, fl gemmFlags, kern Kernel, s []float64) {
	if s != nil {
		gemmDirect(dst, a, b, fl, kern, s)
		return
	}
	gemmPacked(dst, a, b, fl, kern)
}

// cholInverseFactorBase is cholInverseFactor on one diagonal block of at
// most baseBlock rows, stored back into w's lower triangle with the strict
// upper triangle zeroed. Under fma it runs the vector kernels
// (cholesky_amd64.s) on fmaNB x fmaNB buffers in s, or on its own stack when
// s is nil: the block's lower triangle transposed in by the A-panel packer,
// cholBaseFMA, then triInvBaseFMA — bit for bit the Go loops' results.
// Otherwise the Go loops run on a contiguous pooled copy (rows of w are a
// full matrix row apart, which aliases in L1).
func cholInverseFactorBase(w View, kern Kernel, s []float64) error {
	n := w.rows
	if kern == KernelFMA {
		var own [2 * fmaNB * fmaNB]float64
		if s == nil { // a whole small factor, or the last rows of a block split at invNB
			s = own[:]
		}
		t, r := s[:fmaNB*fmaNB], s[fmaNB*fmaNB:2*fmaNB*fmaNB]
		packRowsVec(t, fmaNB, w.data, w.ld, 0, n, 0, n)
		if !cholBaseFMA(t, n) {
			return ErrNotSPD
		}
		triInvBaseFMA(r, t, n)
		for i := 0; i < n; i++ {
			row := w.data[i*w.ld : i*w.ld+n]
			copy(row, r[i*fmaNB:i*fmaNB+i+1])
			clear(row[i+1:])
		}
		return nil
	}
	a, l := Get(n, n), Get(n, n)
	defer Put(a)
	defer Put(l)
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

// invertBlocked overwrites dst with work⁻¹ by the blocked form in one call:
// cholInverseFactor on the whole of work, then M^T M — all of it in one
// directScratch buffer when work has at most invNB rows. Only work's lower
// triangle is read; it is destroyed.
func invertBlocked(dst, work *Matrix, kern Kernel) error {
	var s []float64
	if work.Rows <= invNB {
		b := Get(1, directScratch)
		defer Put(b)
		s = b.Data
	}
	w := viewOf(work)
	if err := cholInverseFactor(w, kern, s); err != nil {
		return err
	}
	blockMul(viewOf(dst), w, w, gemmAT|gemmAUpper|gemmLower|gemmF64, kern, s)
	mirrorLower(dst)
	return nil
}

// SPDInverseInto overwrites dst with the inverse of the symmetric positive
// definite matrix m + damping*I, via Cholesky. If the factorization fails,
// the damping grows exponentially until it succeeds or the attempt budget
// is exhausted. This is the rescue path used when empirical Kronecker
// factors are rank deficient, which happens whenever the micro-batch size
// is smaller than the factor dimension. dst must have m's shape and must
// not alias it; the result is exactly symmetric. All temporaries cycle
// through the workspace pool: steady-state calls allocate nothing. It is
// an InverseChain run to its end in one call.
func SPDInverseInto(dst, m *Matrix, damping float64) error {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		return fmt.Errorf("tensor: SPDInverseInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols)
	}
	var c InverseChain
	if err := c.Start(m, damping); err != nil {
		return err
	}
	for c.Active() {
		if err := c.Step(dst); err != nil {
			return err
		}
	}
	return nil
}

// spdAttempts bounds the damping escalation: the first try at the given
// damping, then up to eleven escalations.
const spdAttempts = 12

// InverseChain is SPDInverseInto cut at the top-level steps of the blocked
// inverse, so each step can run as its own unit of work (the engine packs
// them into separate pipeline bubbles). Above invNB the steps are
// cholInverseFactor's M11 (which first loads the damped copy), Y, Schur,
// M22, Z and M21, then M^T M into dst, under every kernel variant; at or
// below it the whole inverse is the one step — the scalar pipeline up to
// the variant's base block, the blocked form in one call above it. Run in
// order, the steps execute exactly the operations SPDInverseInto does —
// bit-identical by construction — including the damping escalation: a step
// whose Cholesky finds a non-positive pivot reloads the copy at the next
// damping and re-runs every step up to and including itself before
// returning. Between steps the chain holds its damped work copy and the
// blocked path's two n1 x n2 intermediates, all pooled, and it re-reads m
// on an escalation, so m must not change until the chain is done. The zero
// value is an idle chain.
type InverseChain struct {
	m       *Matrix
	damping float64 // the damping of the current attempt
	tries   int     // loads of the work copy so far
	kern    Kernel
	work    *Matrix // the damped copy, turned in place into M = L⁻¹
	y, z    *Matrix // Y = M11 A21^T and Z = M11^T Y (blocked path)
	n1      int     // the top-level split; 0 for a one-step chain
	next    int     // the step Step runs next
}

// InverseChainFLOPs returns the FLOPs of each step of an n x n InverseChain,
// or nil when the chain is a single step (n <= invNB). The steps sum to n³,
// the usual count for Cholesky plus cholesky_inverse: 2k³/3 for each
// recursive chol-inverse of a k-block, n1²·n2 for Y and Z, n1·n2² for the
// Schur update and M21 (triangular halves of the full products), n³/3 for
// the lower half of M^T M.
func InverseChainFLOPs(n int) []float64 {
	if n <= invNB {
		return nil
	}
	a := float64(blockedSplit(n, invNB))
	b := float64(n) - a
	return []float64{2 * a * a * a / 3, a * a * b, a * b * b, 2 * b * b * b / 3, a * a * b, a * b * b, float64(n) * float64(n) * float64(n) / 3}
}

// blockedSplit is the size of the leading block the blocked inverse splits
// an n x n block at: half of it, rounded to a multiple of nb — 0 when
// n <= nb.
func blockedSplit(n, nb int) int { return (n + nb - 1) / nb / 2 * nb }

// Start begins inverting m + damping*I, releasing whatever c held before.
// The kernel variant is the one active now, for every step of the chain.
func (c *InverseChain) Start(m *Matrix, damping float64) error {
	if damping < 0 {
		return fmt.Errorf("tensor: SPDInverse damping must be non-negative, got %g", damping)
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("tensor: SPDInverse requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	c.Release()
	*c = InverseChain{m: m, damping: damping, kern: ActiveKernel(), work: Get(m.Rows, m.Rows)}
	c.n1 = blockedSplit(m.Rows, invNB)
	return nil
}

// Steps returns the chain's step count: 7 above invNB, else 1.
func (c *InverseChain) Steps() int {
	if c.n1 > 0 {
		return 7
	}
	return 1
}

// Active reports whether the chain was started and has steps left.
func (c *InverseChain) Active() bool { return c.work != nil }

// Last reports whether the next Step is the one that writes dst.
func (c *InverseChain) Last() bool { return c.Active() && c.next == c.Steps()-1 }

// Step runs the chain's next step; dst (m's shape, not aliasing it) is read
// only by the last. After the last step, or on an error, the chain returns
// its buffers to the pool and is idle.
func (c *InverseChain) Step(dst *Matrix) error {
	if !c.Active() {
		return errors.New("tensor: InverseChain.Step on an idle chain")
	}
	err := c.run(c.next, dst)
	for errors.Is(err, ErrNotSPD) {
		if c.tries == spdAttempts {
			c.Release()
			return fmt.Errorf("tensor: SPDInverse failed after %d damping attempts: %w", spdAttempts, ErrNotSPD)
		}
		if c.damping == 0 {
			// Seed the escalation relative to the matrix scale.
			c.damping = 1e-8 * math.Max(1, c.m.MaxAbs())
		} else {
			c.damping *= 10
		}
		err = nil
		for k := 0; k <= c.next && err == nil; k++ {
			err = c.run(k, dst)
		}
	}
	if err != nil {
		c.Release()
		return err
	}
	if c.next++; c.next == c.Steps() {
		c.Release()
	}
	return nil
}

// run executes step k of the current attempt; step 0 (re)loads the damped
// copy first.
func (c *InverseChain) run(k int, dst *Matrix) error {
	if k == 0 {
		c.work.CopyFrom(c.m)
		if c.damping > 0 {
			c.work.AddDiagonalInPlace(c.damping)
		}
		c.tries++
		switch {
		case c.work.Rows <= baseBlock(c.kern):
			return invertBase(dst, c.work, c.kern)
		case c.n1 == 0:
			return invertBlocked(dst, c.work, c.kern)
		}
	}
	w := viewOf(c.work)
	n1, n2 := c.n1, c.work.Rows-c.n1
	w11, w21, w22 := w.sub(0, 0, n1, n1), w.sub(n1, 0, n2, n1), w.sub(n1, n1, n2, n2)
	switch k {
	case 0:
		return cholInverseFactor(w11, c.kern, nil)
	case 1:
		if c.y == nil {
			c.y = Get(n1, n2)
		}
		gemmPacked(viewOf(c.y), w11, w21, gemmBT|gemmALower|gemmF64, c.kern)
	case 2:
		gemmPacked(w22, viewOf(c.y), viewOf(c.y), gemmAT|gemmAcc|gemmNeg|gemmLower|gemmF64, c.kern)
	case 3:
		return cholInverseFactor(w22, c.kern, nil)
	case 4:
		if c.z == nil {
			c.z = Get(n1, n2)
		}
		gemmPacked(viewOf(c.z), w11, viewOf(c.y), gemmAT|gemmAUpper|gemmF64, c.kern)
	case 5:
		gemmPacked(w21, w22, viewOf(c.z), gemmBT|gemmALower|gemmNeg|gemmF64, c.kern)
	case 6:
		gemmPacked(viewOf(dst), w, w, gemmAT|gemmAUpper|gemmLower|gemmF64, c.kern)
		mirrorLower(dst)
	}
	return nil
}

// Release returns the chain's buffers to the pool and leaves it idle; a
// no-op on an idle chain.
func (c *InverseChain) Release() {
	putOnce(&c.work)
	putOnce(&c.y)
	putOnce(&c.z)
}

// putOnce returns *b to the pool, if set, and clears it.
func putOnce(b **Matrix) {
	if *b != nil {
		Put(*b)
		*b = nil
	}
}

// SPDInverse is SPDInverseInto into a freshly allocated, caller-owned
// matrix.
func SPDInverse(m *Matrix, damping float64) (*Matrix, error) {
	inv := Zeros(m.Rows, m.Cols)
	if err := SPDInverseInto(inv, m, damping); err != nil {
		return nil, err
	}
	return inv, nil
}
