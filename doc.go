// Package repro is a from-scratch Go reproduction of "PipeFisher:
// Efficient Training of Large Language Models Using Pipelining and Fisher
// Information Matrices" (Osawa, Li, Hoefler — MLSys 2023).
//
// # Architecture
//
// The library is layered so that the timing simulator and the real
// training executor share one schedule representation (one op-list form,
// two interpreters):
//
//	tensor    dense float64 matrices: packed-panel matmul kernels with
//	          runtime CPU dispatch and a float32 compute mode, Cholesky,
//	          RNG
//	nn        layers and autograd: Dense (with K-FAC stat capture),
//	          LayerNorm, attention, TransformerBlock, losses
//	models    internal/bert (encoder, MLM+NSP) and internal/gpt
//	          (decoder, next-token); each has one forward/backward, its
//	          pipemodel.Model adapter, and trains through the engine —
//	          cmd/pretrain runs Figure 7's comparison at one stage
//	pipemodel the stageable-model contract: embedding / blocks / head,
//	          with globally-scaled micro-batch losses
//	kfac      Kronecker-factored curvature: EMA factors, factored
//	          damping, per-factor inversion, preconditioning
//	hardware  device & interconnect cost models (P100, V100, RTX3090)
//	arch      transformer shape algebra (FLOPs, bytes, factor dims)
//	pipeline  the schedule form: Op lists with per-device orders and
//	          dependency edges; builders for GPipe, 1F1B, Chimera; a
//	          discrete-event simulator producing timelines and bubbles
//	schedule  PipeFisher's work assignment (§3.1): packs curvature and
//	          inversion into the bubbles; Executable emits the packed
//	          op list with real dependency edges — over a K-step
//	          refresh round (Config.RefreshSteps) when the refresh
//	          should spread across several steps' bubbles
//	engine    the schedule-driven executor: one loop per device, run on
//	          a process-wide pool of long-lived device goroutines,
//	          walks the op lists and trains a pipemodel.Model for real —
//	          GPipe/1F1B/Chimera on a (replica, stage) device topology
//	          (Config.Replicas = W data-parallel replicas with
//	          replicated parameters and in-process collectives), with
//	          K-FAC running in its packed bubble slots, multi-step
//	          refresh rounds executed atomically (TrainRound), and
//	          measured (executed) timelines out
//	trace     ASCII/SVG/CSV rendering of timelines, simulated or
//	          executed, in the style of the paper's profile figures
//	transport collectives across OS processes: the in-process loopback
//	          and a chunked Unix/TCP socket ring with heartbeats, typed
//	          rank failures and regrouping
//	faults    seeded, reproducible fault plans (fail, stall, drop,
//	          corrupt) the engine injects at named points
//	optim     SGD, Adam, LAMB; LR schedules; steps-to-target and the
//	          smoothed final loss of a loss curve
//	data      synthetic Zipf corpus with BERT masking
//	perfmodel the §3.3 model: step and bubble time from simulating the
//	          built schedule (Table 1's T_pipe, which
//	          pipeline.TestTable1AgainstSimulator holds the simulator
//	          to), memory, throughputs and the refresh ratio, read by
//	          cmd/figures for Figures 5, 6 and 9-16
//
// Simulation answers "how long would this schedule take on that
// hardware" (Figures 1, 3, 4); execution answers "does this schedule
// compute the right thing" — the engine's tests assert that every
// schedule produces gradients identical to a single-device step of the
// engine's reference (internal/engine/reference_test.go). Both
// consume the same pipeline.Schedule, so a schedule validated by one is
// valid for the other.
//
// # Work-kind vocabulary
//
// Each pipeline.WorkKind is one row of a table in internal/pipeline/ops.go:
// its name (String), its Op.Label letter, its ASCII glyph and SVG colour,
// and three flags — refresh work (curvature, inversion, sync-curvature:
// the K-FAC side path that fills bubbles, may run stale and may degrade),
// step tail (sync-grad, precondition, optimizer update: ordered after the
// step's other work) and emitted (Recompute, Degraded and Membership only
// label timeline events, so they are no fault target). The trace
// renderers, the bubble accounting, the degraded-safety proof, the
// executable's step-tail ordering, the engine's retry/degrade ladder and
// the fault targets all read the row;
// switches on a kind remain only where a kind decides what code runs (the
// executor's dispatch, corruptOutput). String names are a stable
// interface: timeline CSVs write them in the kind column and faults specs
// parse them (op=curvature); benchmark/layers.go keys its frozen per-kind
// metrics on the constants. TestWorkKindTable pins every row and requires
// the table to be total with distinct names, glyphs and colours;
// TestRefreshAndTailSetsAgree checks over generated executables that the
// readers of the refresh and tail sets agree.
//
// # Kernel layer
//
// The matmul family, the element-wise exp/erf family and the row ops
// dispatch at runtime across two kernel variants (tensor.SetKernel /
// ActiveKernel, the -kernel flag on both CLIs), both on one packed-panel
// GEMM driver with one fan-out path:
//
//   - tiled — GotoBLAS-style packed panels (A packed into mr-row panels,
//     B into nr-column panels, MC x KC cache blocking) driven through 4x2
//     register-tiled pure-Go micro-kernels. Portable to every GOARCH, and
//     on float64 bit-identical to the naive ascending-k triple loops kept
//     in tensor's tests as the oracle every variant is held to
//     (TestBlockedKernelsMatchScalarReference, every entry point, across
//     worker counts): each output element is one multiply-rounding and one
//     add-rounding per k step, ascending k. Every product in the Go
//     micro-kernels and row loops is converted explicitly, so no GOARCH
//     fuses it (CI checks arm64's listing for fused instructions).
//   - fma — the same packed driver calling hand-written amd64 assembly
//     micro-kernels with fused multiply-add, selected only when CPUID
//     reports AVX2+FMA with OS XSAVE support (never under the purego build
//     tag). Fusing collapses the two roundings into one, so fma results
//     differ from tiled by the fused-rounding delta, and by at most
//     2 ULP in every exp and erf (next paragraph) — but within the variant
//     every bit-identity contract below still holds, because the
//     per-element reduction order stays fixed ascending k and an exp or
//     erf depends on its argument alone. The variant runs at the host's
//     vector width, resolved once at init from CPUID and XCR0 (a pure
//     function of the registers, TestDetectFMA): 256-bit AVX2 tiles (8x4
//     float64, 8x8 float32), or 512-bit tiles (8x16 float64, 8x32 float32;
//     mr stays 8, only the B panels widen) where the CPU reports AVX512F
//     and the OS saves the opmask and ZMM state — except that a product
//     with fewer columns than one wide panel (attention's n = d_k = 8)
//     keeps the 256-bit tile, a choice its shape alone makes. The width is
//     not a third variant and nothing names it — no Kernel value, flag or
//     Config field; tensor.KernelDetail reports it in run headers — because
//     it cannot change a result: at either width every C element is one
//     FMA per k in ascending k from the stored C. Two tests flip the
//     resolved width on a host that has both and demand equal bits:
//     tensor's TestFMAWidthIdentity (every driver entry point — MatMulInto,
//     MatMulTInto, TMatMulInto, TMatMulAddInto, Snap.GramInto, MulViews
//     over strided windows, SPDInverseInto — over generated shapes with
//     edge tiles in both dimensions and KC boundaries on both sides,
//     float64 and float32 mode, 1 and 2 workers; FuzzMulViews compares the
//     widths on every input too) and engine's TestFMAWidthEngineIdentity
//     (losses, every parameter gradient, every K-FAC factor and cached
//     inverse of real 1F1B and overlapped Chimera rounds). On a host
//     without AVX-512 both skip with "fma width: avx512 absent", which CI
//     copies into the job summary. The element-wise kernels below stay
//     256-bit at either width: exp and erf are about 3 % of a training
//     step — measured, not forgotten.
//
// The panels the fma tiles read are packed by amd64 assembly too
// (tensor/pack_amd64.s): a panel whose lanes are source rows (A as stored,
// B transposed) as an 8-row interleave built from 4x4 register transposes,
// one whose lanes are source columns as contiguous vector copies, at mr 8
// and nr 4 / 16 for float64, 8 / 32 for float32 — which narrows with
// VCVTPD2PS, the rounding Go's float32 conversion compiles to. Edge panels
// pad their missing lanes with +0. Packing is an exact copy, so it carries
// no contract of its own to state: the assembly stores the bits
// the Go packers do (tensor's TestPackVecMatchesGo over every panel width,
// lane count 1..width, depths around both KC blocks and strided windows,
// with NaNs, infinities, signed zeros, subnormals and narrowing ties in the
// source; FuzzPack), and every identity contract here holds unchanged.
// tiled and every purego build keep the Go packers.
//
// An operand that multiplies many times between changes can be packed once
// instead: a tensor.Packed holds one copy of a matrix as the left operand's
// mr-row panels or the right operand's nr-column panels over the whole
// contraction, and MatMulPackedAInto / MatMulPackedBInto read them where
// the driver would have read its own. The panels are what the driver packs,
// so the products equal MatMulInto bit for bit. The copy is one float64
// matrix in the layout of the configuration it was packed under — float64
// panels, or row-major under float32 mode, whose float32 panels beside it
// are the only addition — and PackLeft / PackRight keep no reference to what they
// packed. A product under another kernel variant, fma width or float32
// mode first repacks from the Packed's own float64 copy through a pooled
// scratch, so stale panels are never read (TestPackedMatchesMatMulInto
// packs under every configuration and multiplies under every other);
// Unpack copies the matrix back out bit for bit (TestPackedHoldsOneExactCopy).
//
// K-FAC state. Between ops a kfac.LayerState keeps the two Kronecker
// factors and one copy of each cached inverse, held only as a tensor.Packed
// (TestRetainedFloatsAreFactorsPlusOneInverse counts every float the
// preconditioner reaches, under every kernel, float32 mode and width;
// BenchmarkUpdateInverses reports it as retained-B). Who writes an
// inverse: LayerState.setInverse alone — a refresh's last chain step, a
// snapshot restore, and EditInverse, the only write from outside (the
// engine's inverse-corruption fault unpacks the inverse to pooled scratch,
// edits it and reloads it, so the panels carry the NaN the health scan must
// catch: TestCorruptionCaughtBeforeCommit's op=inverse case under every
// kernel). Who reads one: Precondition's two products B⁻¹·G and (B⁻¹G)·A⁻¹,
// which read the panels every step and never check them
// (TestPreconditionPackedInverses: after a swap, a restore, every kernel, a
// float32 flip and a width flip), and LayerState.Inverse, a copy out for
// snapshots, tests and PreconditionedGradient. What is pooled: a refresh's
// inversion target (taken at a chain's last step, returned right after
// the copy in), Precondition's B⁻¹G intermediate (one layer at a time) and
// EditInverse's scratch. A FactorChain touches the layer at its last step
// only, so a layer's A and B chains run on two devices under
// InversionParallel with nothing shared but the last steps, which the
// engine serializes under the layer lock (TestFactorChainsOnTwoGoroutines
// under -race).
//
// The element-wise family is the transcendental half of a step — GELU's erf
// and exp, softmax's and cross-entropy's exps — as three fused forms over
// []float64: tensor.GELUForward (Φ(x) = (1 + erf(x/√2))/2 retained, y =
// x·Φ), tensor.GELUBackward (dy·(Φ + x·φ(x))) and tensor.ExpShift
// (exp(src − shift): tensor.SoftmaxRows' inner pass, both passes of
// nn.crossEntropy; the sums around it are the row ops' rows-in-lanes sums
// below, or ascending scalar sums in nn's cross-entropy).
// tiled runs the math.Erf / math.Exp loops, bit for bit what nn
// computed before the family existed. fma runs AVX2 assembly, four lanes a
// step: exp by round-to-nearest range reduction with a two-part ln 2, a
// degree-13 polynomial and a two-factor exponent insert; erf by the msun
// piecewise rationals math.Erf itself uses, every range evaluated
// branch-free and skipped only when no lane of the vector is in it. Two
// contracts (tensor/vecmath.go): accuracy — within 2 ULP of math.Exp and
// math.Erf (observed over 2e9 points: exp 2, erf 1), NaN, ±Inf, ±0,
// overflow to +Inf above 709.78 and erf's ±1 from |x| = 6 exact, math.Exp's
// gradual underflow below -708.39 reproduced (TestVecMathAccuracy,
// TestVecMathSpecials, FuzzVecMath; TestGELUMatchesTwoErfFormulas,
// TestSoftmaxRowPassesMatchUnfused and TestCrossEntropyFormsBitIdentical
// hold nn's formulas exact under tiled and bounded under fma) —
// and position independence — a result depends on the element's value
// only, not its index, the slice length, alignment or its neighbours; a
// slice's last 1–3 elements run the same instructions on a zero-padded
// register (TestVecMathPositionIndependent).
//
// The family's fourth form is the optimizer's: tensor.AdamUpdate (one
// tensor's Adam moments and update u = (m/bc1)/(√(v/bc2)+ε) + wd·w, the
// gradient pre-scaled first — NVLAMB's global-norm division) and
// tensor.SubScaled (w −= scale·u), which optim.LAMB.Step and optim.Adam.Step
// call once per tensor, so the step commit of both benchmark arms runs on
// them. Their contract is stronger than exp/erf's: under every variant the
// result equals the Go loop bit for bit — fma runs the same IEEE
// operations four lanes at a time (separate VMULPD / VADDPD / VSUBPD /
// VDIVPD / VSQRTPD, nothing fused; the Go loop's products are converted
// explicitly so no GOAMD64 level fuses them either), and AdamUpdate's two
// norms, Σw² and Σu² for LAMB's trust ratio, are in-kernel ascending
// scalar sums, lane by lane, continued in Go over the last len%4 elements.
// So turning the kernel on changed no bit of any training run
// (TestAdamUpdateBitIdentical, TestSubScaledBitIdentical, FuzzAdamUpdate;
// TestLAMBStepMatchesAllocatingReference and TestAdamStepMatchesLoop under
// every variant). The global gradient norm (nn.GradNorm) stays one serial
// sum.
//
// The row ops are the non-GEMM rest of a transformer block under the same
// bit-for-bit contract (tensor/rowops.go): tensor.LayerNormRows and
// LayerNormBackwardRows (nn.LayerNorm), SoftmaxRows and
// SoftmaxBackwardRows (attention's scale + max + exp + normalise pass and
// its backward), AddRowVector and AddColSums (Dense's bias add and
// bias-gradient column sum), and Matrix.AddInPlace / ScaleInPlace (the
// block's residuals). Under fma they run AVX2 assembly
// (tensor/rowops_amd64.s) over groups of four rows — the last rows%4, and
// causal softmax rows, in Go — with every Go operator one vector
// instruction, nothing fused, and every reduction in its Go loop's order
// by one rule, rows in lanes: a row reduction (LayerNorm's mean, variance,
// Σdx̂ and Σdx̂·x̂; softmax's max, sum and backward dot product) gives each
// lane one row, reached through the 4x4 register transposes the packers
// use, which adds the row's elements in ascending column order, two groups
// of four rows in flight; a column reduction (LayerNorm's gain and bias
// gradients, Dense's bias gradient) gives each lane one column, which adds
// in ascending row order. So a row's result depends on its values alone
// and no training bit moved (TestRowOpsBitIdentical over 1–17 rows × 1–70
// columns with NaN, ±Inf, ±0, subnormals and 1e300 among the operands,
// TestRowOpsPositionIndependent, FuzzRowOps; CI runs them at GOAMD64=v3
// too, where the compiler may fuse whatever the spec lets it).
//
// The fma variant's float64 tiles also have store forms
// (fma8x4f64Store, fma8x16f64Store) whose accumulators start at +0
// instead of loading C: a dst = product runs each tile's first k block on
// them, so the driver no longer clears its destination first. The bits are
// the same — the cleared C was +0, and an accumulator that starts at +0
// never becomes −0 — and TestGemmStoreIgnoresDst holds every dst = entry
// point over a NaN-filled destination to a zeroed one. Accumulating
// products, later k blocks, float32 staging and tiled keep the cleared
// destination.
//
// The default is the best available variant. Float32 compute mode
// (tensor.SetF32, the -f32 flag) is orthogonal: float64 stays the API
// currency, but the packed driver narrows its panels to float32,
// accumulates in float32 and widens on write-back — halving panel memory
// traffic — and the engine's K-FAC statistics snapshots narrow at capture
// (tensor.Snap), halving the paper's Msave_err resident cost. Accumulating
// entry points (TMatMulAddInto) add the widened float32 product to the
// float64 accumulator rather than narrowing it, and
// factorization-sensitive code (Cholesky inversion, damping) stays
// float64 in either mode.
//
// The K-FAC inversion unit (tensor.SPDInverseInto: Cholesky, then
// cholesky_inverse) runs on the same driver. Above the variant's base
// block nb — 64 under tiled (tensor's invNB), 16 under fma
// (fmaNB), compile-time constants like the driver's MC/KC blocking — a
// recursive blocked form splits A = [A11 A21^T; A21 A22] at a multiple of
// 64 (of nb once a block is at most 64 rows) and turns it in place into
// M = L⁻¹ (A = L L^T): M11 by recursion, L21^T = M11 A21^T, the Schur
// update A22 -= L21 L21^T, M22 by recursion, M21 = -M22 L21 M11; then
// A⁻¹ = M^T M. Every one of those O(n³) products is a call into the packed
// driver on strided sub-block views — there is one GEMM driver, with flags
// for a negated product, for a triangular left operand (each row panel
// runs only the k range that can hold nonzeros) and for the symmetric
// rank-k update that computes only the tiles touching the lower triangle
// and mirrors them. The same rank-k form builds the Kronecker factors
// (TMatMulInto with both operands the same matrix), bit-identical to the
// full product at half the flops. A Kronecker-factor partial
// (Snap.GramInto) is that product without its mirror: its strict upper
// triangle is unspecified, because a partial is only ever read through the
// sum it folds into, and the engine's factor fold mirrors each folded sum
// once (Matrix.MirrorLower) before the NaN guard, its scale and
// SetFactors read it whole — one mirror per factor per refresh instead of
// one per micro-batch partial, bit for bit the fold of mirrored partials,
// since an upper element was the same sum of the same values in the same
// order (TestFoldMirrorsLowerGramsOnce: loopback at W = 1 and 2, the ring
// at W = 2 and 4, the partials' upper triangles NaN). The base case is the
// Go loops choleskyInto and triInvInto: a factor of dimension <= nb runs
// the whole inverse on them, and above nb only the <= nb diagonal blocks
// do. Under fma those base blocks run as vector kernels
// (tensor/cholesky_amd64.s) that store the Go loops' bits: the block's
// lower triangle is transposed into a 16 x 16 buffer by the A-panel
// packer, the Cholesky runs one matrix row per lane — column j of L from
// columns < j, lane i adding l[i][k]·l[j][k] over ascending k with a
// VMULPD then a VADDPD, the pivot lane checked like the Go loop's — and the
// triangular inverse one column per lane, each row from the rows above it
// (a lane's terms before its own column multiply the exact zeros above the
// diagonal, which leave its sum at +0 until the Go loop's first term). The
// Go loops convert every product explicitly, so GOAMD64=v3 cannot fuse
// them either (TestBaseKernelsMatchGoLoops, CI's v3 step). So under tiled
// a factor of at most 64 rows does not depend on this blocking at all, while under fma every factor wider than 16 runs
// its Cholesky, triangular inverse and M^T M on the FMA micro-kernels (the
// base model's 64-wide factors invert about 4x faster than in the scalar
// loops). A block of at most 64 rows that splits (fma only) runs every
// product on gemmDirect — the driver's tiles over the driver's splits on
// the calling goroutine, its panels, its Y and Z and its base buffers in
// one pooled scratch — skipping the pooled context, the pooled pack
// buffers and the fan-out: those, not arithmetic, were most of a 32- or
// 64-wide inverse. The results equal the earlier path, kept as the
// test-only oracle, bit for bit (TestSPDInverseMatchesOracle: n in 1..64
// and chained sizes, every variant, both fma widths, damping escalation,
// the chain stepped one op at a time; FuzzSPDInverse at n <= 64).
// ErrNotSPD still means a non-positive pivot — of a trailing
// block's Schur complement if not of the leading one — with the
// damping-escalation rescue unchanged around both regimes. The top-level
// split is keyed to 64 under every variant, so inversion chains (below)
// and their pricing do not depend on the variant. The blocked path pins
// the float64 micro-kernels (inverses stay float64 under SetF32;
// TestSPDInverseIgnoresF32); tiled's inverses are a fixed digest
// (TestSPDInverseVariantAndParallelismIdentity) and fma's differ by fused
// rounding only. Determinism: split points, tile grids
// and per-panel k ranges are functions of n and the variant alone (and of
// the fma variant's tile width, which cannot change a bit — above),
// workers own disjoint row panels, the base case and the mirror are
// serial — the inverse is bit-identical across
// SetParallelism/SetOpParallelism within a variant
// (TestSPDInverseVariantAndParallelismIdentity), and exactly symmetric by
// construction. kfac inverts into a pooled target and copies it into the
// cached inverse's panels in one call, so a refresh allocates nothing and a
// reader never sees a half-written inverse (K-FAC state, below).
//
// Attention's per-(sequence, head) core runs on the same driver too,
// through its one strided-window entry point: tensor.MulViews takes a
// batch of products dst = op(a)*op(b) whose operands are tensor.Views
// (Matrix.View: a rows x cols window at (i, j), sharing storage). For
// every item nn.MultiHeadAttention hands it scores = Qh Kh^T and
// Oh = P Vh on the way forward, dP = dOh Vh^T, dVh = P^T dOh, dQh = dS Kh
// and dKh = dS^T Qh on the way back, with Qh, Kh, Vh, dOh the S x dk
// column windows of the (B·S) x d projections and the results written
// straight into the head's window — no gather copies, no zeroing pass.
// Scale, causal mask, max, exp and normalise are one row pass over the
// scores in place, and the scale is folded into dS on the way back; a
// causal module computes the full product and masks in that pass. What is
// identical to what: every product element is one ascending-k reduction, so
// under tiled the outputs, probabilities, input gradient and all eight
// parameter gradients equal the scalar dot-product loops
// this replaced, kept as the test oracle, bit for bit; fma differs from
// them by fused rounding and its softmax exps (<= 1e-12 of the matrix
// scale). The batch's
// products — not the rows of a 64 x 64 x 16 product that sits below the
// serial limit — are the unit of worker fan-out, each computed whole by
// one worker on a tile grid that depends on its shape alone, so results
// are bit-identical across SetParallelism/SetOpParallelism within a
// variant (TestAttentionMatchesScalarOracle enforces all three sentences
// over a generated B x S x heads x dk x causal suite;
// TestMulViewsEdges, TestMulViewsBatchParallelismIdentity and
// FuzzMulViews cover the entry point itself, windows at the last row and
// column, ld != cols, k = 1 and empty windows included). In float32 mode
// the six products follow the compute mode like Dense's do — float32
// panels, float32 accumulation, widened on write-back (TestMulViewsF32:
// bit-identical to a naive float32 reduction for tiled) — while the
// softmax and its backward stay float64; the module then stays within
// 2e-5 of the float64 loops (the suite's f32AttentionBound). Steady state
// allocates nothing (TestMulViewsZeroAlloc,
// TestTransformerBlockSteadyStateZeroAlloc) and every pooled pack buffer
// is returned (TestAttentionShapeChangeAndRepeatedForward).
//
// The kernels are goroutine-parallel behind a shared worker pool:
// tensor.SetParallelism sizes the process-wide intra-op worker budget
// (default GOMAXPROCS, the -workers flag on cmd/pipefisher), and the
// engine caps each device goroutine's
// kernels to its fair share of that budget (tensor.Parallelism() /
// devices) via tensor.SetOpParallelism, so concurrent stages split the
// cores instead of oversubscribing them. The packed driver splits work at
// micro-panel granularity on a grid that depends only on the operand
// shapes, and the executed Timeline records both parallelism values for
// honest real-vs-simulated comparisons. Every kernel variant reduces each
// output element in the same serial order regardless of worker count, so
// results — and therefore gradients — are bit-identical across parallelism
// settings within a variant (and across W, schedules and decompositions,
// per the collectives contract below).
//
// Hot paths are allocation-free in steady state: layers hold retained
// output/gradient buffers (tensor.Reuse), gradient accumulation is fused
// (tensor.TMatMulAddInto), and per-micro-batch temporaries — cross-stage
// activation hand-offs, K-FAC statistics snapshots and partial curvature
// products, Cholesky work buffers — cycle through a pooled workspace
// (tensor.Get / tensor.Put). Pooling contract: whoever Gets a matrix owns
// it until Put, and must drop every reference afterwards; matrices returned
// by layer Forward/Backward are owned by the layer and valid only until its
// next call, so anything that must outlive the producing op is cloned
// (tensor.GetClone) by the engine.
//
// # Replica topology and collectives
//
// Data parallelism multiplies the pipeline: engine.Config.Replicas = W
// gives every stage W replicas (devices stage*W+r for GPipe/1F1B; W whole
// bidirectional pairs for Chimera), each running its own instance of the
// model's modules (pipemodel.Model.Replicate) over the primary's
// parameters and processing its own MicroBatches micro-batches of the
// global batch. The simulator's SyncGrad/SyncCurvature collectives execute
// for real as in-process reductions (internal/engine/collective.go) under
// a strict contract:
//
//   - One parameter copy per process: the unit of execution is a module
//     set — one instance of the model's modules with, per stage, the
//     activation slots of the next section. A replica is one module set; a
//     Chimera replica is two, one per pipeline direction. Every set but the
//     primary holds no storage of its own for parameters or gradients: its
//     parameter Value.Data aliases the primary's (the real system's
//     replica weights, without the copy or a broadcast to them), and its
//     Grad.Data is nil between ops — a backward attaches the zeroed pooled
//     delta buffers it accumulates into, and hands them back before the op
//     completes. aliasError (internal/engine/ownership_test.go) holds every
//     secondary set to both after construction, after every round of the
//     reference matrix (Chimera's up sets among them), after
//     RestoreCheckpoint / RegroupRestore and after Reconnect(g, true).
//   - Ownership: placement — which device hosts which (replica,
//     pipeline, stage), for which micro-batches — is read from the built
//     schedule, never re-derived: every builder indexes its own forward
//     and backward ops into pipeline.Schedule.Placement, the packer takes a
//     stage's owners and the executor a device's hosted stages from it, and
//     internal/pipeline's builders table is the only place a method name
//     decides anything (CI greps for a comparison elsewhere). Building the
//     index is the proof that every (replica, pipeline, stage) maps to
//     exactly one device (TestCheckOwnershipRejects), and
//     pipeline's TestPlacementGenerated holds it to what the ops say for
//     every family x D x N x W x steps, as TestScheduleOwnershipGenerated
//     does for the engine's schedules x K-FAC x K — so one device goroutine
//     drives each module set's stage and no lock guards a module: Chimera's
//     two directions run at the same time
//     (TestChimeraDirectionsRunConcurrently deadlocks under any per-stage
//     lock). Weights are written only by a step's commit, while no device
//     runs anything but K-FAC refresh work (Refresh rounds, step commits),
//     in place, so every module set sees an update, a checkpoint restore or
//     a resync (TestChimeraAliasSurvivesRestore). Gradients leave a
//     module set only as the per-micro-batch deltas of the next bullet.
//     The race detector runs the identity suites in CI.
//   - Reduction order is fixed at micro-batch granularity: each backward
//     accumulates its micro-batch's gradient contribution into pooled delta
//     buffers, and the step's fold adds every delta onto +0 in ascending
//     *global* micro-batch order, over the primary's accumulators: the fold
//     is their only writer, so nothing a caller or an earlier step left
//     there enters a step's gradient (TestFoldOverwritesAccumulators). The
//     order depends on neither the schedule, W, nor the kernel worker
//     count, so reduced gradients are bit-identical across all of them (the
//     engine's data-parallel tests assert exact equality, not closeness).
//     K-FAC curvature partials fold the same way, so factors, inverses, and
//     preconditioned gradients inherit the guarantee.
//   - The fold is a running prefix, and one type carries it for both
//     kinds (internal/engine/collective.go, runningSum): a sum with one
//     contribution per global micro-batch, each a set of k matrices — a
//     (step, stage)'s delta set, k its parameters, or a (generation,
//     stage, layer, factor)'s Gram partial, k = 1. Each addition of the
//     chain is rounded on its own, so a contribution can join the running
//     sum as soon as every lower one is in: the backward's delta set adds
//     into the primary's accumulators, a curvature op's Gram partial into
//     its factor's pooled sum, inside the op, which returns the buffer to
//     the pool and adds any waiting successors too. A contribution that
//     arrives early (Chimera's other direction, another replica) waits in
//     its slot for the device that completes the prefix. So a stage holds
//     its running sums plus what waits (TestFoldHoldsOneBufferPerSum;
//     BenchmarkEngineRoundFoldBytes reports the bytes), and every arrival
//     order of every split across devices gives the chain's bits, for one
//     matrix or a weight and its bias (TestPrefixFoldMatchesChainFold). A
//     single-process SyncGrad finds the sum complete and has nothing left
//     to add, and the inversion hands the sums on. Only the rank that
//     starts the transport chain folds early (Collective transport
//     contract).
//   - Buffer ownership: a running sum owns its contribution slots and a
//     factor's pooled sum; its methods are the only code that takes a
//     contribution from the pool, folds, reduces, scrubs, and finds the
//     buffer a corruption fault poisons. A fold or a reduction Puts what it
//     consumed and nils the slot, and an aborted round's rollback (or the
//     generation pool's reset) scrubs the rest; the primary's accumulators
//     are left as the abort found them, unspecified until the next step's
//     first fold starts them over (TestPoolAuditNoLeakOnAbortAnywhere
//     aborts after one, two and three committed steps of a K = 4 round).
//     The steady-state collective path is allocation-free
//     (TestReduceGradsZeroAlloc).
//   - Any participant may complete a reduction: the first to reach a sum
//     in its epoch does — a stage's gradient collective in the round, a
//     layer's factor pair in the generation — under the sum's lock, with
//     the sum in place as the destination (on a rank > 0 a factor's sum is
//     taken from the pool there) and the sum as the base when the prefix
//     holds anything. Latecomers block until it completed (the rendezvous)
//     and get its outcome: a failed reduction's error is sticky for the
//     epoch, so a retried inversion degrades rather than adding parts
//     twice (TestReductionErrorIsSticky). The reduced gradient lands in the
//     primary replica's accumulators, the only ones the caller's optimizer
//     reads.
//   - InversionParallel shards each stage's K-FAC inversion units
//     round-robin across the stage's replica group; the shared per-stage
//     preconditioner makes the post-inversion broadcast implicit, and
//     per-layer locks let different factors invert concurrently.
//
// # Activation slots
//
// No backward re-runs a forward. Every (module set, stage) holds as many
// activation slots as the built schedule keeps micro-batches in flight
// there — pipeline.Schedule.InFlightDepth, read off the device orders at
// every schedule rebuild: N under GPipe, min(N, D-s) under 1F1B, and under
// Chimera the micro-batches of min(D/2, D-s) of its direction's D/2 slots
// (TestInFlightDepthGenerated, TestChimeraOrderIsWidened1F1B). That is at
// most the Act = N·Mact perfmodel.MemoryModel charges every method, and it
// is the paper's configuration without "R"; the simulator still prices R
// through pipeline.CostConfig.Recompute.
//
//   - A slot is the stage's blocks (slot 0) or nn.TransformerBlock.Twin
//     copies of them: the same parameter and gradient *tensor.Matrix
//     headers — so the aliased weights, the attached delta buffers, a
//     checkpoint restore and the optimizer reach every slot with no code of
//     their own — with their own forward-retained buffers and nothing else.
//   - The one device goroutine that owns the (replica, pipeline, stage)
//     owns its slots: a forward takes a free one and leaves the
//     micro-batch's activations (and the stage output) in it, the
//     micro-batch's backward runs on it and frees it. Stage 0 keeps a pooled
//     clone of its input like every later stage and re-runs only the
//     embedding before EmbedBackward, whose caches the model holds for one
//     micro-batch. A round's high-water slot use per stage is exactly the
//     schedule's depth and every slot is free when it ends
//     (TestSlotHighWaterMatchesInFlightDepth); an aborted round's rollback
//     frees them all and strands no pooled buffer (TestSlotsFreeAfterAbort).
//   - The slots of a stage share their set's gradient headers. That is
//     exact because gradients leave a set only as per-micro-batch deltas:
//     each backward accumulates from zero into the delta buffers it took
//     from its stage's running sum (runningSum.take) and detaches them
//     before the device starts anything else.
//   - What only a backward writes — input gradients, the K-FAC capture of
//     output gradients, attention's projection gradients — is not slot
//     memory: it is a scratch the device goroutine owns (nn.BlockScratch,
//     one per block position of a stage), attached to the slot about to be
//     back-propagated. A device's ops are serial and each backward's
//     results are copied out inside the op, so every slot of every stage a
//     device hosts shares it; a block used outside the engine lazily owns
//     one. BenchmarkEngineSlotBytes reports both sizes and asserts a twin's
//     forward + backward grows the heap by the forward-retained share only.
//   - Only which buffer holds an activation changed, never an arithmetic
//     order: TestSlotsBitIdenticalToRecompute holds losses, gradients,
//     factors and inverses to the reference (Refresh rounds, "Staleness
//     semantics"), which runs each micro-batch's forward straight into its
//     backward on one set of blocks.
//
// # Collective transport contract
//
// internal/transport generalizes those in-process reductions across OS
// processes: a transport.Group runs all-reduce (one at a time or as a
// batch) and broadcast over *named* buffers for a group of ranks — the
// three collectives the engine calls — and engine.Config.Transport plugs
// one into every reduction the engine performs. On a Ring the all-reduce's
// distribution pass and Broadcast are one relay pass, the chunked
// receive-copy-forward loop every rank runs (TestRingWireBytes pins each
// rank's bytes). A nil Transport is the loopback: the existing in-process fold,
// CI-gated at exactly zero extra allocations and <2% throughput against
// the transport-free executor rows — choosing a transport costs the
// single-process configuration nothing. DialRing connects a chain of
// Unix-domain or TCP sockets (cmd/pipefisher -transport ring -group,
// or -group spawn:N to have the CLI fork N single-rank processes itself),
// and the contract makes the choice between them a pure deployment
// decision:
//
//   - Fold order is THE invariant. Rank g of a W_g-rank group running R
//     local replicas owns global micro-batches [g*R*M, (g+1)*R*M): the
//     chain starts at +0 on rank 0, adds rank 0's contributions in
//     ascending global-micro order, passes the running sum on, and every
//     later rank adds its own in the same order — the same total order as
//     one process running W_g*R replicas. Who folds early follows from
//     it: rank 0 starts the chain, so it adds its local contributions into
//     running sums as they complete, exactly as the loopback does, and
//     hands the group each sum as the reduction's base
//     (transport.Reduction.Base) with no parts. A rank > 0 cannot: its
//     additions come after the upstream sum arrives, and a local sum would
//     group them differently, so it keeps one buffer per contribution and
//     passes them as parts. Gradients, K-FAC factors, inverses
//     and preconditioned updates are therefore bit-identical between a
//     2-process ring and a single loopback process at equal global width
//     (CI's multiproc job diffs the per-step losses for exact equality).
//     Every rank materializes the global batch from the shared corpus
//     seed, so data placement is a pure function of rank.
//   - Buffer ownership across the wire: callers hand the Group dst and
//     part slices that remain caller-owned; the transport never retains
//     them past the call. On the receive side each Ring owns its reader
//     scratch, interns buffer names, and recycles data frames with their
//     payloads through pools, one per power-of-two payload size — the
//     steady-state chunk path allocates nothing, and stale
//     frames from an aborted round are drained back into the pool, not
//     leaked. Payloads cross in place: a data frame's header is encoded
//     into the sender's scratch and its float64s are written straight from
//     the caller's slice, and the reader reads them straight into the
//     pooled frame's payload (little-endian hosts; a big-endian one
//     converts value by value), so the wire format is unchanged and no
//     per-value copy is left on either side (FuzzReadFrame).
//   - Chunking: payloads split at DefaultChunkFloats (64 KiB) so the fold
//     of chunk k overlaps the transfer of chunk k+1 along the chain.
//     The win needs cores to overlap on — hardware.ChainAllReduceCost
//     models it (>=1.3x over the single-message chain at gradient-bucket
//     sizes, pinned by test on every ring width), pipeline.CostConfig.
//     Transport prices simulated schedules with the same model, and
//     BenchmarkAllReduce measures the real wire (on a single-core host
//     the fixed per-frame cost makes chunked ~= unchunked; the model is
//     the acceptance bar, the bench is the honest measurement).
//   - Batching: a stage's per-parameter gradient reductions (one running
//     sum's k reductions), and a stage's K-FAC factor sums (all 2L of
//     them, once per generation), go to the group as one
//     Group.AllReduceBatch, retained by the sums so the steady state
//     allocates nothing. The factor batch runs at the stage's
//     sync-curvature op, which the packer emits per (stage, generation,
//     owner) wherever the group spans processes (schedule.Config.
//     CrossProcess), after every curvature op of the stage and before
//     every inversion of it; the first owner to reach it exchanges, the
//     others find it done, and a layer's first inversion only folds the
//     reduced sums into the EMA (TestRingFactorExchangePerStage).
//     Single-process schedules carry no such op unless InversionParallel
//     shards a stage, and there the exchange is free. Before, each layer's
//     first inversion exchanged its own pair: six round trips per stage
//     of tiny_ring2 (2 ranks, 1F1B, D = 2). Per stage, with the frames
//     read and written in place, pipefisher_seqs_per_s rose 5 469 → 6 093
//     there (medians of 20 interleaved pairs, faster in 20/20, 2 vCPUs),
//     kfac_overhead fell 1.29 → 1.24, and the traced engine.inversion_ms
//     fell 0.71 → 0.10 ms a step, its compute, beside a 0.45 ms
//     engine.sync_curvature_ms. A factor's
//     row count is not reduced: every statistic has one row per token, so
//     the group-wide count is the generation's batch, Seqs × SeqLen. A Ring runs
//     every reduce pass before the first distribution pass: the same
//     frames, bytes and arithmetic as one AllReduce each
//     (TestRingAllReduceBatchMatchesSeparateCalls), but rank 0 no longer
//     waits for reduction k to come back around the ring before it starts
//     reduction k+1 — a 26-parameter stage pays the ring's round trip
//     once, not 26 times, and each of those round trips was a chain of
//     goroutine wake-ups that a millisecond-scale step spent a third of
//     its time in. Loopback's batch is one AllReduce after another, so
//     the loopback fold is instruction-for-instruction what it was.
//   - Failure semantics ride the round protocol: BeginRound tags every
//     collective with an epoch, and a rank that aborts mid-round sends an
//     abort frame around the ring, so a dropped or failed remote
//     collective surfaces on every rank as the same attributed abort the
//     fault layer already handles — checkpoint/replay then rewinds all
//     ranks together (CI's chaos job injects a collective drop into a
//     real 2-process ring and asserts replay completes). Epoch 0 is
//     exempt so initialization collectives can never be killed by a
//     stale abort, and a startup barrier keeps a fast rank's round abort
//     from racing a slow rank's init.
//   - In-process replicas compose with any transport: ring ranks of R
//     local replicas each — one parameter copy per rank — reproduce the
//     in-process W = ranks x R run bit for bit
//     (TestRingLocalReplicasBitIdentity; CI diffs 2 ranks x -dp 2 against
//     loopback -dp 4).
//
// # Elastic membership contract
//
// A ring group is elastic: rank death is a first-class, attributed event
// the survivors train through, and a restarted rank can rejoin a running
// group. The state machine is detect -> regroup -> (optionally) rejoin:
//
//   - Failure detection. Every ring connection runs under wire deadlines
//     (RingOptions.WireTimeout bounds each read/write; DialTimeout bounds
//     dial, accept and the hello exchange, so a group that never fully
//     forms fails fast instead of hanging), heartbeat frames flow to the
//     next rank every HeartbeatInterval and are forwarded around the ring
//     (RankStats exposes per-rank liveness, age, and self-reported round
//     pace), and CollectiveTimeout bounds how long a collective may sit
//     waiting for frames. Every liveness breach surfaces as the same typed
//     error: transport.RankFailure{Rank, Cause}, attributed to the peer
//     that actually died — a rank that dies mid-collective is reported by
//     its ring neighbor and the attribution is forwarded, so all survivors
//     name the same culprit (transport.AsRankFailure unwraps it). Frames
//     that already arrived are served before any failure check, so a dead
//     peer fails only the collectives still missing wire data.
//   - Regroup (shrink). Survivors each call transport.Reform with the
//     ORIGINAL address list, the ascending original ranks still alive, and
//     an incremented membership view (the hello exchange validates all
//     members agree on it); survivors renumber contiguously, which IS the
//     engine's re-shard — rank g of the smaller width recomputes its global
//     micro-batch slice from the new Size/Rank. The failed group is closed
//     only AFTER Reform returns (a survivor can still owe forwarding
//     writes into the old ring). engine.Reconnect swaps the engine onto
//     the new group and reprices the schedule; engine.RegroupRestore then
//     rewinds the survivors together: step commits are not atomic across
//     ranks, so the survivors gather each rank's checkpointed step over
//     the new group, agree on the maximum (a committed step is causally
//     complete on its committer), and the lowest-ranked owner broadcasts
//     state to ranks that were behind — in the common all-equal case every
//     rank restores purely locally.
//   - Determinism across the shrink. Batch sizing stays keyed to the
//     ORIGINAL width, so the shrunken group consumes the same global data
//     stream. Post-shrink training is bit-identical to a fresh run at the
//     surviving width restored from the same checkpoint (identity-tested),
//     because the fold order is a function of global micro index only.
//   - Rejoin (width restore). The spawn:N runner is a supervisor: a child
//     that exits with the kill code was murdered by the fault plan, and
//     with -supervise it is relaunched with -rejoin (and without the fault
//     plan — the fault already happened). The rejoiner builds its engine
//     on the loopback, requests admission via a file in the group's socket
//     directory, and at the next round boundary the shrunken group's rank
//     0 broadcasts the admission ("member/cmd"), so every member re-forms
//     the full-width ring between the same two rounds. Everyone then calls
//     engine.Reconnect(g, true): parameters, optimizer state and step
//     counters re-broadcast from the current rank 0, and K-FAC
//     preconditioners reset symmetrically on every rank with a forced
//     refresh — the group re-derives identical curvature together rather
//     than shipping factor EMAs to the newcomer (§3.1's staleness
//     discipline applied to membership).
//   - Straggler visibility. Heartbeats carry each rank's last round wall
//     time, and transport.Ring.RankStats reports every rank's pace, so a
//     slow rank shows as one rather than as a uniformly slow ring.
//     Timelines stamp every event with the membership view and mark the
//     change with a Membership span (CSV "membership" column, orange
//     marker in SVG).
//
// When no failure occurs the elastic machinery is free: the heartbeat
// path costs zero extra allocations and <2% throughput on the ring
// executor benchmarks (CI-gated).
//
// # Refresh rounds
//
// The paper's K-FAC refreshes fit into the bubbles of *several consecutive
// pipeline steps* (2-4-step refresh windows). The round is the first-class
// executable form of that window: schedule.Executable with RefreshSteps =
// K emits ONE op list spanning K steps — each op carries its step index,
// curvature ops (fed by the window's first-step statistics) land in the
// bubbles of steps 0..K-1 wherever the PipeFisher packer placed them,
// inversions follow in later steps' bubbles — each once its layer pair's
// curvature is placed on every owner and the stage's sync-curvature has
// run, the one rule schedule.Assign's analysis and the executable share
// (package schedule, rule 2) — and the engine executes the
// whole round as one loop per device, with no goroutine spawned or torn
// down per round or per step: cross-step dependency edges (optimizer-step
// to next forward, curvature fold to a later step's inversion) use the same
// per-op completion word as intra-step ones. Round contract:
//
//   - Device loops and their waits (engine/devloop.go): the run state a
//     round walks — one completion word per op, one wake channel per
//     device, the hand-off, slot, loss and delta tables — is compiled once
//     per schedule, and a round only re-arms it: an op is done in this
//     round once its word holds the round's number, so no word is cleared.
//     A round hands each device's loop to an idle worker of a process-wide
//     pool of long-lived device goroutines, or grows the pool by one — a
//     loop never queues behind another loop, since a round's loops wait on
//     each other. A device has one wait inside a round, the dependency
//     wait: it publishes the op it parks on, and the op's completion wakes
//     only the devices parked on it; the round's abort wakes every device.
//     That wait and an idle worker's wait for
//     its next loop poll (runtime.Gosched between polls) for at most 2 ms
//     before they park, OpenMP's active wait policy — but only on a
//     single-process engine (a ring's progress comes from netpoll, which
//     never runs on a P that does not go idle) and only while the running
//     device loops plus spinning idle workers are at most GOMAXPROCS: spin
//     only while the waker has a core of its own. The rule is re-checked at
//     every poll, and a round's loops count as running from before the
//     first is handed out. The reason is measured:
//     a parked goroutine's wake-up cost ~1.3 ms at the median once the
//     vCPU it woke had idled (70 µs otherwise) on the 2-vCPU host, which
//     had left 0.20 of tiny_1f1b's makespan idle that a replay of the same
//     ops at their measured durations does not explain
//     (engine.wait_gap_share). Polling cut it to 0.047 and took tiny_1f1b's
//     pipefisher_seqs_per_s from 4 372 to 5 773 at the median of 10
//     interleaved pairs on that host. The poll is bounded because an
//     unbounded one lost wide_1f1b_k8 pairs, whose refresh ops keep a
//     waiting device waiting for long. Waits still end on the round's abort
//     (TestWatchdogAbortWhileConsumerSpins, TestFaultSuitesWithSpinningWaits).
//   - Rounds without a generation: a round that neither collects a
//     generation nor carries one — 3 of 4 rounds at refreshEvery = 4K
//     without overlap — walks the same op list as any other; each refresh
//     op finds no pool and returns without recording an event. A skip of
//     those ops measured no difference (kfac_overhead 1.1673 vs 1.1664,
//     5 of 10 pairs) and was removed as a second path.
//   - Factor ownership across step boundaries: the window's first step
//     snapshots the per-micro-batch statistics into pooled buffers owned
//     by the run state; the scheduled Curvature ops consume them in
//     whichever step's bubble the packer chose, each adding its partial
//     into its factor's running sum once the lower micro-batches' are in
//     (ascending global-micro order); the first Inversion op of a layer
//     completes the two sums across the group and folds them into the
//     per-stage preconditioner's EMA (under the per-layer lock), and each
//     Inversion op — for a factor inverted as a chain, the chain's last —
//     then swaps one cached inverse.
//     One round always completes exactly one refresh.
//   - Staleness semantics: the Precondition op of step j depends exactly
//     on the inversions the packer assigned to steps <= j, so each step
//     preconditions with the freshest completed inverses — and with the
//     previous refresh's inverses for factors still in flight, the
//     stale-but-cheap discipline of §3.1; refreshEvery is a multiple of K.
//     This contract's test is a reference (internal/engine/reference_test.go):
//     the engine's semantics as one loop on one goroutine, no pipelines,
//     pools or module sets — each global micro-batch forward and backward
//     in ascending order, gradient deltas and K-FAC partials folded through
//     the transport's fold in that order (each factor's folded sum mirrored
//     once: the partials are lower triangles), a refresh fed by its window's
//     first-step statistics, each factor's new inverse first serving at the
//     step of its inversion op (or its chain's last op) in the engine's own
//     Schedule, a carried generation folding and inverting before the
//     window's own. TestEngineMatchesReference holds every loss, every
//     gradient the optimizer sees and every factor and inverse after every
//     round to it bit for bit over a generated matrix of models, families,
//     W, K, overlap, InversionParallel, refresh intervals and kernel
//     variants.
//   - Step commits: a step's commit is its OptStep ops' completion. Every
//     OptStep op arrives; the last to arrive fires the caller's optimizer
//     callback (SetOptimizer) and only then signals the step's OptStep ops.
//     The callback reads the step's gradient from the primary's
//     accumulators — nothing zeroes them: the next step's fold overwrites
//     them — so collectives and the update happen exactly once per step,
//     with the bit-identical fixed reduction order; the update, written
//     into the primary's storage in place, is what every module set
//     computes with next. The commit holds base work only: a device that
//     arrived keeps running the refresh ops next in its order (curvature,
//     sync-curvature, inversion), and its next base op — forward,
//     backward, sync-grad, precondition, optimizer — depends on its own
//     device's OptStep, so the ordinary dependency wait holds it until the
//     commit ran (pipeline.TestNextStepBaseOpsFollowOwnOptStep holds every
//     builder to that edge). A failed commit is reported once, by the
//     device that ran it, and signals nothing: the round aborts. The
//     commit's exclusivity covers parameters and gradients — the one moment weights are written, which is what lets
//     Chimera's two directions read one copy of them without a lock — not
//     the K-FAC state: an inversion that would swap an inverse a pending
//     step's precondition still reads waits for that precondition by a
//     schedule edge (schedule.Executable), and an error from an op that ran
//     while a commit was pending surfaces only once the commit resolved, so
//     which steps commit never depends on timing. TestCommitPendingIdentity
//     holds losses, gradients, factors and inverses of rounds that ran
//     refresh work while a commit was pending to the reference;
//     TestCommitPendingErrorSurfacesAfterCommit,
//     TestWatchdogIdleWhileAwaitingCommit and the schedule tests'
//     checkCommitEdges hold the rest. On failure the round aborts at round
//     granularity: committed steps stand, the failing step's gradients are
//     left for the next fold to overwrite, and the step counter advances
//     only past the committed steps.
//
// # Overlapped rounds and generations
//
// Serialized rounds leave a gap at window boundaries: refresh work that
// does not fit a window's bubbles executes before the window's tail while
// the NEXT window's early bubbles — unusable for its own refresh, whose
// statistics do not exist yet — go idle. Overlapped rounds
// (engine.Config.OverlapRounds / schedule.Config.Overlap) close the gap by
// giving every refresh op a *generation*:
//
//   - Op.Generation 0 is the window's own statistics generation; 1 marks
//     work *carried* from the previous window — the spill, recomputed as a
//     fixed point so the steady-state window is self-consistent (what
//     spills out of a window is exactly what the next window absorbs).
//     Carried ops are ready the moment the round starts and pack FIRST,
//     into the early bubbles; the window's own curvature collection fills
//     what is left. When everything fits, the overlap schedule — and the
//     executed math — is identical to the serialized one, which is the
//     same fixed point with nothing carried: one packing pass (schedule's
//     packGeneration) runs once per generation, the carried one first.
//     Carry is one round (schedule.Config.CarryDepth is 2 under Overlap):
//     work that does not fit the next window either serializes before its
//     tail.
//   - Work that serializes — a serialized round's spill, or carried work
//     that found no bubble either — runs right before the last step's tail
//     in one dependency rank on every device (schedule's spillRank):
//     curvature, sync-curvature, the carried generation's inversions (a
//     chain's steps in sequence), the window's own inversions. No owner
//     inverts while a peer owner waits on curvature it has yet to run
//     (Chimera's two owners of a stage), and since every edge among such
//     work points down the rank, the device orders cannot wait in a cycle
//     (TestExecutableDigestMatrix checks the order on every schedule).
//   - The engine double-buffers generation-tagged statistics pools
//     (kfacGenPool): a collect round snapshots and reduces into one pool
//     while the carried generation folds and inverts out of the other, so
//     a new window's snapshots never clobber factors still in flight. The
//     fold happens at first inversion touch of a layer per generation,
//     under the per-layer lock, scaled by the generation's own statistics
//     batch (across processes the stage's sync-curvature has exchanged the
//     sums by then); cross-generation dependency edges order a layer's carried
//     fold before the newer generation's, keeping the EMA sequential.
//   - Preconditions keep §3.1's freshest-completed rule across the window
//     boundary: step j depends on the inversions of BOTH generations
//     assigned to steps <= j, so a factor whose inversion carried is
//     served stale for at most one extra window. An abort discards any
//     half-collected or half-delivered generation and forces the next
//     round to refresh from scratch.
//
// Adaptive round length: engine.Config.RefreshSteps =
// engine.AdaptiveRefreshSteps derives K from the modeled work
// (schedule.AdaptiveRoundLength = Assign's refresh window) instead of a
// hand-picked flag: at EnableKFAC, priced at the micro-batch shape the
// engine knows, and again after the first committed round at a new shape
// (callers re-query RoundSteps every round; TestAdaptiveRoundLengthFollowsShape).
// Assign places the refresh with the pass Executable
// emits its op list from, so the window it reports is by construction one
// the executed round fits (TestAdaptiveRoundLengthFitsExecutable).
// trace.BubbleUtilization / RenderBubbleSummary quantify the result:
// per-device busy, refresh-filled and idle fractions, with the
// refresh-filled share of the bubble budget as the headline number.
//
// # Cost model
//
// The packer lays work out by its proportions, and the engine prices them
// from the model it holds, not from constants: the dims of its dense layers
// (read off the blocks, held to arch's K-FAC layer list), the sequence
// length, and the sequences per micro-batch of the round — a round whose
// micro-batches have another shape re-prices and rebuilds the schedule.
// pipeline.CostsFor's op classes turn the shapes into times: forward (2 din
// dout FLOPs per token per layer plus attention's 4 S d), backward (twice
// forward), curvature per factor (2 d² FLOPs per token), inversion per
// factor (d³), precondition (2 dout din (din + dout) per layer), the
// optimizer update (8 FLOPs per parameter) and the collectives (hardware's
// interconnect models, where the topology runs them: a multi-process
// group's sync-curvature as the chunked chain all-reduce of the stage's
// float64 factor sums), on a nominal host
// profile that prices every FLOP alike and no byte — the blocked inverse
// runs on the same packed GEMM driver as the products it is weighed
// against, and a proportion of FLOPs to bytes would be one more number to
// invent. Nothing is measured: the costs are a pure function of
// configuration and shapes, so engines built alike pack alike (the paired
// benchmark replays an arm on a twin and needs identical packing). The
// schedule they pack is written at construction and rebuilt only by a new
// micro-batch shape (reprice) or an adaptive round length re-derived at it
// (adaptRoundLength); the method, topology and overlap are fixed for the
// run, chosen offline as in §3.3. Vanilla op lists are what they were at
// the benchmark's shapes (TestShapePricedVanillaSchedulesUnchanged);
// BenchmarkEngineRoundShape reports modeled against measured cost per kind
// (model_err/<kind>), and MeasuredCosts prices the optimizer update as each
// step's commit, its longest OptStep event.
//
// # Inversion chains
//
// A factor whose inversion outlasts a stage forward fits no bubble whole.
// The engine's costs make it a chain (pipeline.StageCosts.InversionChains):
// the top-level steps of the blocked inverse — the damped copy and M11, Y,
// the Schur update, M22, Z, M21, then M^T M (tensor.InverseChain) — each
// priced by its own FLOPs (tensor.InverseChainFLOPs), each an Inversion op
// (Op.Chain 1..7) packed whole into a bubble after the step before it.
// Contract:
//
//   - Exactness: in order, the steps run exactly SPDInverseInto's
//     operations — SPDInverseInto is the chain run in one call — damping
//     escalation included, which a middle step redoes from the start
//     (TestInversionChainBitIdentical: every kernel variant, f32 on and off,
//     parallelism 1 and 2; TestChainedInversionsBitIdenticalToWhole in the
//     engine).
//   - Ownership: the first step folds the layer's factors on first touch and
//     fixes the factored damping; the work copy and the two intermediates
//     belong to the generation pool (kfacGenPool.chains) until the last
//     step, the only one that takes the layer lock again and the only one
//     that touches the layer: it inverts into a pooled target, copies it
//     in as the cached inverse, and carries the edges preconditions wait
//     on. A chain's steps
//     share one generation: a chain never straddles windows.
//   - Failure: a step that degrades releases its chain, the later steps do
//     nothing and the factor's stale inverse keeps serving
//     (TestChainStepDegradesOnlyItsFactor); an abort scrubs the pools with
//     everything else (TestPoolAuditNoLeakOnAbortAnywhere aborts at every
//     chain step).
//   - Explicit costs — cmd/figures', MeasuredCosts' per-kind means —
//     carry no chains.
//   - Small chains: a factor of at most 64 rows is a one-step chain, and
//     under fma every product of its blocked form (every product of any
//     block of at most 64 rows, inside a longer chain's M11 and M22 steps
//     too) fits one tile block; those run on gemmDirect in the chain's own
//     scratch, with the same splits, the same per-element FMA order and the
//     same bits as the packed driver.
//
// # Fault tolerance contract
//
// The executor survives injected and real faults without ever trading
// away determinism. internal/faults builds seeded, reproducible fault
// plans — fail / stall / drop / corrupt actions pinned to named
// (step, device, op-kind, micro, generation) injection points, with
// optional firing counts (faults.Parse for the CLI spec grammar on the
// -faults flag, faults.Random for seeded soak plans). The plan hooks into
// the engine via engine.Config.FaultPlan. There is one device loop: every
// op waits on its dependencies or the round's abort, whichever comes
// first, and runs through one path that arms the watchdog, consults the
// injector and retries. With FaultPlan, Config.OpTimeout and
// Config.OpRetries unset those steps do nothing — CI-gated at exactly zero
// extra allocations and <2% throughput on the executor benchmarks. Setting
// any of the three decides one thing only: a refresh op that fails past
// its retries degrades the round (below) instead of aborting it.
//
// Resilience is layered, in escalation order:
//
//   - Watchdog: Config.OpTimeout arms a per-op deadline. An op that
//     exceeds it is converted into an attributed abort ("watchdog:
//     ... stalled") rather than a silent hang; devices waiting for a
//     commit unpark on abort so a stalled collective cannot wedge the
//     round, and their watchdog slots stay disarmed while they wait.
//   - Retry with backoff: failed side-path ops (curvature, inversion,
//     sync-curvature) retry up to Config.OpRetries times, the first retry
//     after 2 ms and each further one after twice the previous delay. The
//     executed Timeline records the retry count on the succeeding
//     attempt's event (CSV "retries" column).
//   - Degraded K-FAC: a side-path op that exhausts its retries does NOT
//     abort the round. The refresh is marked failed, SetFactors is never
//     reached, and every step preconditions with the previous
//     generation's cached inverses — §3.1's stale-but-cheap rule extended
//     to failure: stale beats absent, absent beats dead. If no generation
//     exists yet (first refresh fails), layers without inverses fall back
//     to the unpreconditioned gradient, bit-identical to a no-K-FAC
//     engine. A degraded round commits its steps normally, is flagged on
//     StepResult (Degraded/DegradedReason with the root-cause device and
//     op) and carries a Degraded marker span in the Timeline; the next
//     refresh round starts from scratch, and the factor EMA is never
//     touched by a failed or corrupt refresh (NaN/Inf in a folded factor
//     sum is caught before the EMA). schedule.ValidateDegradedSafety proves
//     the licensing precondition on every rebuild: no base-path op may depend
//     on refresh output except Precondition-on-Inversion, the one edge
//     with a defined fallback.
//   - Checkpoint/replay: base-path faults (forward, backward, sync-grad,
//     precondition, opt-step) still abort, with the existing
//     round-granularity rollback and a root-cause error naming the
//     device, op, and — for injected faults — the injection point. With
//     Config.Checkpoint the engine snapshots parameters, K-FAC state, step
//     counters and (via AttachOptimizerState) optimizer moments at every
//     round start (not gradients: the replayed step's fold overwrites
//     them);
//     RestoreCheckpoint rewinds an aborted round so TrainRound can replay
//     the same batches. Replay after an injected abort reproduces the
//     fault-free parameters bit-identically — the identity tests assert
//     exact equality for BERT and GPT at W in {1, 2} under all three
//     schedules. Corruption (NaN/Inf) in base-path outputs is caught at
//     the step commit before parameters update, so a corrupted
//     step can never commit.
//
// Abort hygiene holds at every injection point: the per-op-kind abort
// sweep asserts the root cause survives the abort's drain for every kind in
// the schedule, every inversion-chain step and refresh work running while
// a commit is pending, and the pool audit (tensor.SetPoolAudit / PoolLive)
// asserts the workspace pool returns to its steady-state live count after
// an abort at every (step, op-kind, chain step) — aborted and degraded
// rounds leak nothing.
//
// The benchmark harness in bench_test.go regenerates the paper's tables
// and figures, and cmd/ plus examples/ provide runnable entry points
// (cmd/pipefisher -execute runs the sim/exec comparison end to end;
// -dp the hybrid pipeline x data-parallel configuration, -dp replicas of
// every stage in each process for a width of -dp x the ranks of -group,
// -refresh-steps the multi-step refresh rounds — 0 sizes them adaptively —
// -overlap the overlapped windows, and -transport ring -group spawn:N the
// real multi-process socket ring). The committed BENCH_tensor.json /
// BENCH_engine.json files are the perf-trajectory baseline;
// scripts/bench_compare.go reports benchstat-style deltas against them and
// CI fails on steady-state throughput regressions beyond 10%.
package repro
