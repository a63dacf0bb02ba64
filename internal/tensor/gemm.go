package tensor

import (
	"fmt"
	"sync"
)

// The packed-panel GEMM driver: the shared implementation behind the
// MatMul*/TMatMul* entry points for KernelTiled and KernelFMA (and for
// every kernel in float32 mode), and behind every O(n³) term of the
// blocked SPD inverse (cholesky.go), which calls it on strided sub-block
// views with the gemmFlags variants. The structure is GotoBLAS-style:
//
//	pack B once per call (nr-column panels, shared read-only)
//	split M into mr-row panels, fan panel ranges out to pool workers
//	per worker: MC-row blocks x KC-deep slices of packed A,
//	            micro-kernel over the tile grid
//
// Determinism: the tile grid and block boundaries depend only on the
// operand shapes and the kernel's (mr, nr) — never on the worker count —
// and workers own disjoint row-panel ranges, so results are bit-identical
// across parallelism settings per variant. KC blocking is bit-transparent
// because the micro-kernels resume each block from the stored C values
// (one continuous ascending-k reduction per element, no per-block
// subtotals). All pack, staging and context buffers come from the
// workspace pools; steady-state calls allocate nothing.

const (
	// gemmMC is the row-block height: one packed A block is at most
	// gemmMC x gemmKC (256 KiB float64), sized for L2 residency. It must
	// be a multiple of every kernel's mr so worker-chunk row panels stay
	// aligned with the shape-global panel grid.
	gemmMC = 128
	// gemmKC is the contraction-block depth of the Go and 256-bit tiles:
	// one packed B panel slice is gemmKC x nr (8 KiB at the fma tiles'
	// nr = 4 float64 / nr = 8 float32), sized for L1 residency.
	gemmKC = 256
	// gemmKCWide is the depth under the 512-bit tiles, whose B slice is
	// four times as wide: 256 x 16 float64 is 32 KiB, which no longer fits
	// a 48 KiB L1d beside the 16 KiB A panel streaming past it; at 128 the
	// pair is 16 + 8 KiB. Measured on the bench host (one core, float64,
	// kc 128 vs 256): 128x512x128 +4 %, 256^3 +3 %, 512x512x128 +2 %,
	// k <= 128 and float32 flat. KC blocking is bit-transparent, so the
	// depth is a tuning value, not a contract.
	gemmKCWide = 128
)

type microF64 func(c []float64, ldc int, ap, bp []float64, kc int)
type microF32 func(c []float32, ldc int, ap, bp []float32, kc int)

// View is a strided window into a row-major float64 matrix: element
// (i, j) lives at data[i*ld+j]. The driver's operands are views so the
// blocked factorizations (cholesky.go) can run it on sub-blocks in place
// and attention (nn) on the per-head column windows of its (B·S) x d
// projections, with no gather copies. Outside the package a View is made
// by Matrix.View and consumed by MulViews.
type View struct {
	data           []float64
	rows, cols, ld int
}

func viewOf(m *Matrix) View { return View{m.Data, m.Rows, m.Cols, m.Cols} }

// View returns the rows x cols window of m whose top-left corner is
// (i, j). The window shares m's storage. It panics if the window does not
// lie inside m.
func (m *Matrix) View(i, j, rows, cols int) View {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(fmt.Sprintf("tensor: View (%d,%d)+%dx%d outside %dx%d matrix", i, j, rows, cols, m.Rows, m.Cols))
	}
	if rows == 0 || cols == 0 {
		return View{rows: rows, cols: cols, ld: m.Cols}
	}
	return viewOf(m).sub(i, j, rows, cols)
}

// sub returns the rows x cols window whose top-left corner is (i, j).
func (v View) sub(i, j, rows, cols int) View {
	return View{v.data[i*v.ld+j:], rows, cols, v.ld}
}

func (v View) zero() {
	if v.ld == v.cols {
		clear(v.data[:v.rows*v.cols])
		return
	}
	for i := 0; i < v.rows; i++ {
		clear(v.data[i*v.ld : i*v.ld+v.cols])
	}
}

// gemmFlags selects the variant of dst = op(a)*op(b) one driver call runs.
type gemmFlags uint8

const (
	gemmAT  gemmFlags = 1 << iota // op(a) = a^T
	gemmBT                        // op(b) = b^T
	gemmAcc                       // dst += instead of dst =
	// gemmNeg negates the product (dst = -op(a)*op(b), or dst -= with
	// gemmAcc) by negating the packed A panels, which is exact. Like the
	// triangular flags below it is honoured on the float64 path only:
	// set gemmF64 with it.
	gemmNeg
	// gemmLower computes only the micro-tiles that touch dst's lower
	// triangle (dst square): the symmetric rank-k update. Elements above
	// the diagonal are left unspecified; mirrorLower fills them.
	gemmLower
	// gemmALower / gemmAUpper declare op(a) lower / upper triangular
	// (square, m == k): each row panel then runs only the k range that can
	// hold nonzeros. The skipped entries are never multiplied, so they
	// need not be zero outside the mr-wide band around the diagonal.
	gemmALower
	gemmAUpper
	// gemmF64 pins the float64 micro-kernels regardless of F32().
	gemmF64
)

// gemmCtx is the per-call state shared by all workers of one packed GEMM,
// or — with batch set — of one MulViews batch, whose workers each run
// their products through a private single-product context. Contexts are
// pooled so steady-state calls allocate nothing.
type gemmCtx struct {
	dst, a, b View
	m, n, k   int
	fl        gemmFlags
	f32       bool
	mr, nr    int
	kc        int // contraction-block depth
	nPanB     int
	bp        *Matrix   // packed B, float64 path
	bp32      *Matrix32 // packed B, float32 path
	k64       microF64
	k32       microF32

	batch []Product // batch context: the fan-out unit is one product
	kern  Kernel    // kernel family of the batch's products
}

var gemmCtxPool = sync.Pool{New: func() any { return new(gemmCtx) }}

// gemmPacked computes dst = op(a)*op(b) through the packed-panel
// pipeline, in the variant fl selects. kern selects the micro-kernel
// family; KernelScalar callers only arrive here in float32 mode, from the
// blocked inverse or from MulViews, where the tiled Go kernel doubles as
// the scalar reference. dst must not alias a or b (a may alias b).
func gemmPacked(dst, a, b View, fl gemmFlags, kern Kernel) {
	g := gemmCtxPool.Get().(*gemmCtx)
	if g.setup(dst, a, b, fl, kern) {
		parRunGemm(g, g.nPanA(), g.m*g.n*g.k)
	}
	g.release()
}

// setup points g at one product and packs its B operand, reusing the pack
// buffer of g's previous product when that is large enough. It reports
// false, with any dst = 0 already stored, when there is nothing to
// multiply.
func (g *gemmCtx) setup(dst, a, b View, fl gemmFlags, kern Kernel) bool {
	m, n := dst.rows, dst.cols
	k := a.cols
	if fl&gemmAT != 0 {
		k = a.rows
	}
	if m == 0 || n == 0 {
		return false
	}
	if k == 0 {
		if fl&gemmAcc == 0 {
			dst.zero()
		}
		return false
	}
	g.dst, g.a, g.b = dst, a, b
	g.m, g.n, g.k = m, n, k
	g.fl = fl
	g.f32 = fl&gemmF64 == 0 && F32()
	g.kc = gemmKC
	// A product that cannot fill one 512-bit panel keeps the 256-bit tile:
	// attention's n = d_k = 8 would run every tile half empty through the
	// edge path (measured 1.3-1.6x slower at n = 8, 1.05-1.5x at n = 12;
	// from one full panel on the wide tile wins). Shape alone decides, so
	// the choice cannot differ between workers or runs.
	wide := kern == KernelFMA && fmaWide.Load()
	if g.f32 {
		switch {
		case wide && n >= 32:
			g.mr, g.nr, g.kc, g.k32 = 8, 32, gemmKCWide, fma8x32f32
		case kern == KernelFMA:
			g.mr, g.nr, g.k32 = 8, 8, fma8x8f32
		default:
			g.mr, g.nr, g.k32 = 4, 2, mk4x2f32
		}
	} else {
		switch {
		case wide && n >= 16:
			g.mr, g.nr, g.kc, g.k64 = 8, 16, gemmKCWide, fma8x16f64
		case kern == KernelFMA:
			g.mr, g.nr, g.k64 = 8, 4, fma8x4f64
		default:
			g.mr, g.nr, g.k64 = 4, 2, mk4x2f64
		}
	}
	g.nPanB = (n + g.nr - 1) / g.nr
	need := g.nPanB * g.nr * k
	if g.f32 {
		if g.bp32 == nil || len(g.bp32.Data) < need {
			Put32(g.bp32)
			g.bp32 = Get32(1, need)
		}
		packB(g.bp32.Data, b, fl&gemmBT != 0, n, k, g.nr)
	} else {
		if g.bp == nil || len(g.bp.Data) < need {
			Put(g.bp)
			g.bp = Get(1, need)
		}
		packB(g.bp.Data, b, fl&gemmBT != 0, n, k, g.nr)
	}
	return true
}

func (g *gemmCtx) nPanA() int { return (g.m + g.mr - 1) / g.mr }

// release returns g's pack buffers and g itself to their pools.
func (g *gemmCtx) release() {
	Put32(g.bp32)
	Put(g.bp)
	*g = gemmCtx{}
	gemmCtxPool.Put(g)
}

// Product names one dst = op(a)*op(b) of a MulViews batch; TransA and
// TransB make op the transpose.
type Product struct {
	Dst, A, B      View
	TransA, TransB bool
}

func (p *Product) flags() (fl gemmFlags) {
	if p.TransA {
		fl |= gemmAT
	}
	if p.TransB {
		fl |= gemmBT
	}
	return fl
}

// dims returns the product's m, n and k, or ok = false when the three
// windows' shapes do not agree.
func (p *Product) dims() (m, n, k int, ok bool) {
	m, k = p.A.rows, p.A.cols
	if p.TransA {
		m, k = k, m
	}
	kb, n := p.B.rows, p.B.cols
	if p.TransB {
		kb, n = n, kb
	}
	return m, n, k, k == kb && p.Dst.rows == m && p.Dst.cols == n
}

// MulViews overwrites every product's Dst window with op(A)*op(B) — the
// strided-window entry point of the packed driver, built for attention's
// per-(sequence, head) products. The products are independent and are the
// unit of worker fan-out (one product alone fans out over its row panels
// like MatMulInto); each runs the same tile grid and ascending-k reduction
// whichever worker takes it, so results are bit-identical across
// parallelism settings. KernelScalar runs the tiled Go micro-kernel, which
// is bit-identical to a scalar ascending-k dot product; KernelFMA differs
// by fused rounding; in float32 mode the panels narrow as in MatMulInto.
// A Dst window must not overlap any window the batch reads or another Dst.
// Steady-state calls allocate nothing. It panics on a shape mismatch.
func MulViews(ps []Product) {
	work := 0
	for i := range ps {
		m, n, k, ok := ps[i].dims()
		if !ok {
			p := &ps[i]
			panic(fmt.Sprintf("tensor: MulViews product %d: dst %dx%d = op(%dx%d) * op(%dx%d) (TransA %v, TransB %v)",
				i, p.Dst.rows, p.Dst.cols, p.A.rows, p.A.cols, p.B.rows, p.B.cols, p.TransA, p.TransB))
		}
		work += m * n * k
	}
	switch len(ps) {
	case 0:
		return
	case 1:
		gemmPacked(ps[0].Dst, ps[0].A, ps[0].B, ps[0].flags(), ActiveKernel())
		return
	}
	g := gemmCtxPool.Get().(*gemmCtx)
	g.batch, g.kern = ps, ActiveKernel()
	parRunGemm(g, len(ps), work)
	g.release()
}

// parRunGemm fans row-panel ranges [0, nPan) — of a batch context, product
// ranges — out to the worker pool with the same work-conserving handoff as
// parRun: parked workers take chunks, the caller runs the rest inline.
// work gates the serial fallback. Chunks hold equal shares of panelCost,
// so the triangular variants stay balanced; which worker computes a panel
// never changes its result.
func parRunGemm(g *gemmCtx, nPan, work int) {
	w := opWorkers()
	if w > nPan {
		w = nPan
	}
	if w <= 1 || work < serialWorkLimit {
		gemmRange(g, 0, nPan)
		return
	}
	var total int
	for p := 0; p < nPan; p++ {
		total += g.panelCost(p)
	}
	share := (total + w - 1) / w
	chunkEnd := func(lo int) int {
		hi, acc := lo, 0
		for hi < nPan && acc < share {
			acc += g.panelCost(hi)
			hi++
		}
		return hi
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	p := curPool.Load()
	first := chunkEnd(0)
	for lo := first; lo < nPan; {
		hi := chunkEnd(lo)
		wg.Add(1)
		t := task{g: g, lo: lo, hi: hi, wg: wg}
		select {
		case p.ch <- t:
		default:
			gemmRange(g, lo, hi)
			wg.Done()
		}
		lo = hi
	}
	gemmRange(g, 0, first)
	wg.Wait()
	wgPool.Put(wg)
}

// panelCost is row panel p's share of the call's multiply-adds: uniform
// for a plain product, the panel's tile count times its k range for the
// lower-only and triangular variants, the whole product for a batch.
func (g *gemmCtx) panelCost(p int) int {
	if g.batch != nil {
		m, n, k, _ := g.batch[p].dims()
		return m * n * k
	}
	if g.fl&(gemmLower|gemmALower|gemmAUpper) == 0 {
		return 1
	}
	end := min((p+1)*g.mr, g.m)
	cols, kl := g.n, g.k
	if g.fl&gemmLower != 0 {
		cols = min(cols, end)
	}
	if g.fl&gemmALower != 0 {
		kl = min(kl, end)
	}
	if g.fl&gemmAUpper != 0 {
		kl -= p * g.mr
	}
	return cols * kl
}

// gemmRange computes the output row panels [p0, p1) of one packed GEMM,
// or the products [p0, p1) of a batch, each whole on this goroutine.
// Runs on pool workers; each invocation owns its range exclusively.
func gemmRange(g *gemmCtx, p0, p1 int) {
	if g.batch != nil {
		one := gemmCtxPool.Get().(*gemmCtx)
		for i := p0; i < p1; i++ {
			p := &g.batch[i]
			if one.setup(p.Dst, p.A, p.B, p.flags(), g.kern) {
				gemmRange(one, 0, one.nPanA())
			}
		}
		one.release()
		return
	}
	if g.f32 {
		gemmRange32(g, p0, p1)
		return
	}
	mr, nr, n, ldc := g.mr, g.nr, g.n, g.dst.ld
	fl := g.fl
	structured := fl&(gemmLower|gemmALower|gemmAUpper) != 0
	c := g.dst.data
	i0 := p0 * mr
	iEnd := p1 * mr
	if iEnd > g.m {
		iEnd = g.m
	}
	kcMax := min(g.k, g.kc)
	mcMax := iEnd - i0
	if mcMax > gemmMC {
		mcMax = gemmMC
	}
	mcPad := (mcMax + mr - 1) / mr * mr
	// One pooled buffer holds the packed A block plus the edge-tile
	// scratch (its stale contents only ever land in discarded lanes).
	ap := Get(1, mcPad*kcMax+mr*nr)
	apData := ap.Data[:mcPad*kcMax]
	tile := ap.Data[mcPad*kcMax : mcPad*kcMax+mr*nr]
	for ib := i0; ib < iEnd; ib += gemmMC {
		ic := iEnd - ib
		if ic > gemmMC {
			ic = gemmMC
		}
		if fl&gemmAcc == 0 {
			// Lower-only: no tile of this block reaches past column
			// ib+ic+nr, and the caller's mirror overwrites the rest.
			zc := n
			if fl&gemmLower != 0 {
				zc = min(n, ib+ic+nr)
			}
			g.dst.sub(ib, 0, ic, zc).zero()
		}
		nPanA := (ic + mr - 1) / mr
		for kk := 0; kk < g.k; kk += g.kc {
			kc := min(g.k-kk, g.kc)
			// Triangular op(a): k blocks wholly past the block's last row
			// (lower) or before its first (upper) hold only zeros.
			if fl&gemmALower != 0 && kk >= ib+ic {
				break
			}
			if fl&gemmAUpper != 0 && kk+kc <= ib {
				continue
			}
			packA(apData, g.a, fl&gemmAT != 0, ib, ic, kk, kc, mr)
			if fl&gemmNeg != 0 {
				neg := apData[:nPanA*mr*kc]
				for i, v := range neg {
					neg[i] = -v
				}
			}
			for jp := 0; jp < g.nPanB; jp++ {
				jc := n - jp*nr
				if jc > nr {
					jc = nr
				}
				bpan := g.bp.Data[jp*nr*g.k+kk*nr : jp*nr*g.k+(kk+kc)*nr]
				for ip := 0; ip < nPanA; ip++ {
					row := ib + ip*mr
					rows := ic - ip*mr
					if rows > mr {
						rows = mr
					}
					apan := apData[ip*mr*kc : (ip+1)*mr*kc]
					bsub, kl := bpan, kc
					if structured {
						if fl&gemmLower != 0 && jp*nr >= row+rows {
							continue // tile wholly above the diagonal
						}
						// This panel's k range within the block: [t0, t1).
						t0, t1 := 0, kc
						if fl&gemmALower != 0 && row+rows < kk+kc {
							t1 = row + rows - kk
						}
						if fl&gemmAUpper != 0 && row > kk {
							t0 = row - kk
						}
						if t0 >= t1 {
							continue
						}
						apan, bsub, kl = apan[t0*mr:t1*mr], bpan[t0*nr:t1*nr], t1-t0
					}
					if rows == mr && jc == nr {
						g.k64(c[row*ldc+jp*nr:], ldc, apan, bsub, kl)
					} else {
						for r := 0; r < rows; r++ {
							copy(tile[r*nr:r*nr+jc], c[(row+r)*ldc+jp*nr:(row+r)*ldc+jp*nr+jc])
						}
						g.k64(tile, nr, apan, bsub, kl)
						for r := 0; r < rows; r++ {
							copy(c[(row+r)*ldc+jp*nr:(row+r)*ldc+jp*nr+jc], tile[r*nr:r*nr+jc])
						}
					}
				}
			}
		}
	}
	Put(ap)
}

// gemmRange32 is the float32-mode worker body: panels are packed as
// float32, the product accumulates in a padded float32 staging block
// (every tile full, so no edge handling), and the valid region widens
// into the float64 dst on write-back — store for overwrite semantics,
// add-in-float64 for accumulate semantics, preserving the float64
// precision of gradient accumulators.
func gemmRange32(g *gemmCtx, p0, p1 int) {
	mr, nr, n, ldc := g.mr, g.nr, g.n, g.dst.ld
	lower := g.fl&gemmLower != 0
	aT, acc := g.fl&gemmAT != 0, g.fl&gemmAcc != 0
	c := g.dst.data
	i0 := p0 * mr
	iEnd := p1 * mr
	if iEnd > g.m {
		iEnd = g.m
	}
	kcMax := min(g.k, g.kc)
	mcMax := iEnd - i0
	if mcMax > gemmMC {
		mcMax = gemmMC
	}
	mcPad := (mcMax + mr - 1) / mr * mr
	nPad := g.nPanB * nr
	ap := Get32(1, mcPad*kcMax)
	stg := Get32(1, mcPad*nPad)
	for ib := i0; ib < iEnd; ib += gemmMC {
		ic := iEnd - ib
		if ic > gemmMC {
			ic = gemmMC
		}
		icPad := (ic + mr - 1) / mr * mr
		sd := stg.Data[:icPad*nPad]
		for i := range sd {
			sd[i] = 0
		}
		for kk := 0; kk < g.k; kk += g.kc {
			kc := min(g.k-kk, g.kc)
			packA(ap.Data, g.a, aT, ib, ic, kk, kc, mr)
			nPanA := icPad / mr
			for jp := 0; jp < g.nPanB; jp++ {
				bpan := g.bp32.Data[jp*nr*g.k+kk*nr : jp*nr*g.k+(kk+kc)*nr]
				for ip := 0; ip < nPanA; ip++ {
					if lower && jp*nr >= ib+(ip+1)*mr {
						continue // tile wholly above the diagonal: stays zero
					}
					g.k32(sd[ip*mr*nPad+jp*nr:], nPad, ap.Data[ip*mr*kc:(ip+1)*mr*kc], bpan, kc)
				}
			}
		}
		if acc {
			for r := 0; r < ic; r++ {
				srow := sd[r*nPad : r*nPad+n]
				drow := c[(ib+r)*ldc : (ib+r)*ldc+n]
				for j, v := range srow {
					drow[j] += float64(v)
				}
			}
		} else {
			for r := 0; r < ic; r++ {
				srow := sd[r*nPad : r*nPad+n]
				drow := c[(ib+r)*ldc : (ib+r)*ldc+n]
				for j, v := range srow {
					drow[j] = float64(v)
				}
			}
		}
	}
	Put32(ap)
	Put32(stg)
}
