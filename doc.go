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
//	          eigen, RNG
//	nn        layers and autograd: Dense (with K-FAC stat capture),
//	          LayerNorm, attention, TransformerBlock, losses
//	models    internal/bert (encoder, MLM+NSP) and internal/gpt
//	          (decoder, next-token); both implement pipemodel.Model
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
//	engine    the schedule-driven executor: per-device goroutines walk
//	          the op lists and train a pipemodel.Model for real —
//	          GPipe/1F1B/Chimera on a (replica, stage) device topology
//	          (Config.Replicas = W data-parallel replicas with
//	          replicated parameters and in-process collectives), with
//	          K-FAC running in its packed bubble slots, multi-step
//	          refresh rounds executed atomically (TrainRound), and
//	          measured (executed) timelines out
//	trace     ASCII/SVG/CSV rendering of timelines, simulated or
//	          executed, in the style of the paper's profile figures
//	optim     Adam, LAMB, Shampoo-style extra work; LR schedules
//	data      synthetic Zipf corpus with BERT masking
//	perfmodel fitted step-time models and configuration search
//
// Simulation answers "how long would this schedule take on that
// hardware" (Figures 1, 3, 4); execution answers "does this schedule
// compute the right thing" — the engine's tests assert that every
// schedule produces gradients identical to a single-device step. Both
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
// executable's step-tail ordering, the engine's retry/degrade ladder, the
// fault targets and the auto-tuner's cost classes all read the row;
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
// The matmul family and the element-wise exp/erf family dispatch at
// runtime across three kernel variants (tensor.SetKernel / ActiveKernel,
// the -kernel flag on both CLIs):
//
//   - scalar — the cache-blocked scalar loops, kept as the parity
//     reference every other variant is tested against.
//   - tiled — GotoBLAS-style packed panels (A packed into mr-row panels,
//     B into nr-column panels, MC x KC cache blocking) driven through 4x2
//     register-tiled pure-Go micro-kernels. Portable to every GOARCH and
//     bit-identical to scalar on float64: both reduce each output element
//     with one multiply-rounding and one add-rounding per k step,
//     ascending k.
//   - fma — the same packed driver calling hand-written amd64 assembly
//     micro-kernels with fused multiply-add, selected only when CPUID
//     reports AVX2+FMA with OS XSAVE support (never under the purego build
//     tag). Fusing collapses the two roundings into one, so fma results
//     differ from scalar/tiled by the fused-rounding delta, and by at most
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
//     not a fourth variant and nothing names it — no Kernel value, flag or
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
// The element-wise family is the transcendental half of a step — GELU's erf
// and exp, softmax's and cross-entropy's exps — as three fused forms over
// []float64: tensor.GELUForward (Φ(x) = (1 + erf(x/√2))/2 retained, y =
// x·Φ), tensor.GELUBackward (dy·(Φ + x·φ(x))) and tensor.ExpShift
// (exp(src − shift): softmaxRows' inner pass, both passes of
// nn.crossEntropy; the sums around it stay ascending scalar sums in nn).
// scalar and tiled run the math.Erf / math.Exp loops, bit for bit what nn
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
// hold nn's formulas exact under scalar and tiled and bounded under fma) —
// and position independence — a result depends on the element's value
// only, not its index, the slice length, alignment or its neighbours; a
// slice's last 1–3 elements run the same instructions on a zero-padded
// register (TestVecMathPositionIndependent).
//
// The default is the best available variant. Float32 compute mode
// (tensor.SetF32, the -f32 flag) is orthogonal: float64 stays the API
// currency, but the packed driver narrows its panels to float32,
// accumulates in float32 and widens on write-back — halving panel memory
// traffic — and the engine's K-FAC statistics snapshots narrow at capture
// (tensor.Snap), halving the paper's Msave_err resident cost. Accumulating
// entry points (TMatMulAddInto) add the widened float32 product to the
// float64 accumulator rather than narrowing it, and
// factorization-sensitive code (Cholesky inversion, eigen, damping) stays
// float64 in either mode.
//
// The K-FAC inversion unit (tensor.SPDInverseInto: Cholesky, then
// cholesky_inverse) runs on the same driver. Above nb = 64 (tensor's
// invNB, a compile-time constant like the driver's MC/KC blocking) a
// recursive blocked form splits A = [A11 A21^T; A21 A22] at a multiple of
// nb and turns it in place into M = L⁻¹ (A = L L^T): M11 by recursion,
// L21^T = M11 A21^T, the Schur update A22 -= L21 L21^T, M22 by recursion,
// M21 = -M22 L21 M11; then A⁻¹ = M^T M. Every one of those O(n³) products
// is a call into the packed driver on strided sub-block views — there is
// one GEMM driver, with flags for a negated product, for a triangular
// left operand (each row panel runs only the k range that can hold
// nonzeros) and for the symmetric rank-k update that computes only the
// tiles touching the lower triangle and mirrors them. The same rank-k
// form builds the Kronecker factors (TMatMulInto with both operands the
// same matrix, hence Snap.GramInto), bit-identical to the full product at
// half the flops. The scalar loops survive as the base case: a factor of
// dimension <= nb runs the scalar pipeline end to end, each element one
// ascending-k reduction, so its inverse does not depend on the kernel
// variant or on this blocking at all; above nb only the <= nb diagonal
// blocks use them, and ErrNotSPD still means a non-positive pivot — of a
// trailing block's Schur complement if not of the leading one — with the
// damping-escalation rescue unchanged around both regimes. The blocked
// path pins the float64 micro-kernels (inverses stay float64 under
// SetF32; TestSPDInverseIgnoresF32) and runs the scalar variant on the
// tiled Go micro-kernel, so scalar and tiled inverses agree bit for bit
// and fma differs by fused rounding only. Determinism: split points, tile
// grids and per-panel k ranges are functions of n alone (and of the fma
// variant's tile width, which cannot change a bit — above), workers own
// disjoint row panels, the base case and the mirror are serial — the
// inverse is bit-identical across SetParallelism/SetOpParallelism within
// a variant (TestSPDInverseVariantAndParallelismIdentity), and exactly
// symmetric by construction. kfac ping-pongs two retained buffers per
// factor (write the spare, then swap the pointer), so a refresh allocates
// nothing and a reader never sees a half-written inverse.
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
// under scalar (which runs the tiled Go micro-kernel here, as in the
// blocked inverse) and tiled the outputs, probabilities, input gradient
// and all eight parameter gradients equal the scalar dot-product loops
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
// bit-identical to a naive float32 reduction for scalar/tiled) — while the
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
// kernels to its fair share of that budget (engine.Config.Workers /
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
// products, Cholesky/eigen work buffers — cycle through a pooled workspace
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
// bidirectional pairs for Chimera), each holding its own parameter copy
// (pipemodel.Model.Replicate, re-broadcast from the primary at every
// step) and processing its own MicroBatches micro-batches of the global
// batch. The simulator's SyncGrad/SyncCurvature collectives execute for
// real as in-process reductions (internal/engine/collective.go) under a
// strict contract:
//
//   - Ownership: the unit of execution is a module set — one copy of the
//     model's modules with its own gradient accumulators and, per stage,
//     the activation slots of the next section. A replica is one module set; a Chimera replica is
//     two, one per pipeline direction, and the up-pipeline set holds no
//     weights of its own: its parameter Value.Data aliases its replica's
//     storage (the real system's second weight copy, without the copy or
//     a broadcast to it). Placement — which device hosts which (replica,
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
//     lock). Weights are written only while every device is parked at the
//     step-commit barrier, in place, so both directions see an update, a
//     checkpoint restore or a resync (TestChimeraAliasSurvivesRestore,
//     TestReconfigureIntoChimeraBuildsAliasedSets). Gradients leave a
//     module set only as the per-micro-batch deltas of the next bullet.
//     ShardParams keeps its gather state per module set for the same
//     reason. The race detector runs the identity suites in CI.
//   - Reduction order is fixed at micro-batch granularity: each backward
//     snapshots its micro-batch's gradient contribution into pooled delta
//     buffers, and the stage's SyncGrad folds carried state plus every
//     delta in ascending *global* micro-batch order. The order depends on
//     neither the schedule, W, nor the kernel worker count, so reduced
//     gradients are bit-identical across all of them (the engine's
//     data-parallel tests assert exact equality, not closeness). K-FAC
//     curvature partials fold the same way, so factors, inverses, and
//     preconditioned gradients inherit the guarantee.
//   - Buffer ownership: the run state owns the carried and delta buffers.
//     The reduction consumes the deltas (foldParams Puts each and nils
//     its slot); a step's carried pre-step accumulators survive until that
//     step commits — and no longer: the commit returns them to the pool —
//     so an aborted step can roll every stage back — folded or not — to
//     the caller's pre-step gradient state
//     (TestPoolAuditNoLeakOnAbortAnywhere aborts after one, two and three
//     committed steps of a K = 4 round). The steady-state collective path
//     is allocation-free.
//   - Any participant of a stage's collective may perform the reduction;
//     the per-stage once-guard blocks latecomers until it completed (the
//     rendezvous), and the reduced result lands in the primary replica's
//     accumulators — the only ones the caller's optimizer reads.
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
// every schedule rebuild: N under GPipe, min(N, D-s) under 1F1B, the
// owner's share under Chimera (TestInFlightDepthGenerated). It is the
// executed counterpart of perfmodel.MemoryModel's Act = N·Mact, and the
// paper's configuration without "R"; the simulator still prices R through
// pipeline.CostConfig.Recompute.
//
//   - A slot is the stage's blocks (slot 0) or nn.TransformerBlock.Twin
//     copies of them: the same parameter and gradient *tensor.Matrix
//     headers — so a ShardParams gather, Chimera's aliased up set, a
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
//   - The slots of a stage share their set's gradient accumulators. That is
//     exact because gradients leave a set only as per-micro-batch deltas:
//     each backward accumulates from zero and its contribution is moved out
//     (snapshotGradDeltas) before the device starts anything else.
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
//     order: TestSlotsBitIdenticalToRecompute pins losses, gradients,
//     factors and inverses to digests recorded on the recomputing executor.
//
// # Collective transport contract
//
// internal/transport generalizes those in-process reductions across OS
// processes: a transport.Group runs reduce-scatter / all-gather /
// all-reduce / broadcast over *named* buffers for a group of ranks, and
// engine.Config.Transport plugs one into every reduction the engine
// performs. A nil Transport is the loopback: the existing in-process fold,
// CI-gated at exactly zero extra allocations and <2% throughput against
// the transport-free executor rows — choosing a transport costs the
// single-process configuration nothing. DialRing connects a chain of
// Unix-domain or TCP sockets (cmd/pipefisher -transport ring -group,
// or -group spawn:N to have the CLI fork N single-rank processes itself),
// and the contract makes the choice between them a pure deployment
// decision:
//
//   - Fold order is THE invariant. Rank g of a W_g-rank group running R
//     local replicas owns global micro-batches [g*R*M, (g+1)*R*M): it
//     folds its local deltas in ascending global-micro order exactly as
//     the loopback would, and the cross-rank reduction folds the per-rank
//     partials in ascending rank order — the same total order as one
//     process running W_g*R replicas. Gradients, K-FAC factors, inverses
//     and preconditioned updates are therefore bit-identical between a
//     2-process ring and a single loopback process at equal global width
//     (CI's multiproc job diffs the per-step losses for exact equality).
//     Every rank materializes the global batch from the shared corpus
//     seed, so data placement is a pure function of rank.
//   - Buffer ownership across the wire: callers hand the Group dst and
//     part slices that remain caller-owned; the transport never retains
//     them past the call. On the receive side each Ring owns its reader
//     scratch, interns buffer names, and recycles payload buffers through
//     pools, one per power-of-two size — the steady-state chunk path
//     allocates nothing, and stale
//     frames from an aborted round are drained back into the pool, not
//     leaked.
//   - Chunking: payloads split at DefaultChunkFloats (64 KiB) so the fold
//     of chunk k overlaps the transfer of chunk k+1 along the chain.
//     The win needs cores to overlap on — hardware.ChainAllReduceCost
//     models it (>=1.3x over the single-message chain at gradient-bucket
//     sizes, pinned by test on every ring width), pipeline.CostConfig.
//     Transport prices simulated schedules with the same model, and
//     BenchmarkAllReduce measures the real wire (on a single-core host
//     the fixed per-frame cost makes chunked ~= unchunked; the model is
//     the acceptance bar, the bench is the honest measurement).
//   - Batching: a stage's per-parameter gradient reductions, and a K-FAC
//     layer's two factors with their row counts (one batch of four per
//     layer refresh, not one per factor), go to the group as one
//     transport.AllReduceBatch. A Ring (a transport.BatchReducer) runs
//     every reduce pass before the first distribution pass: the same
//     frames, bytes and arithmetic as one AllReduce each
//     (TestRingAllReduceBatchMatchesSeparateCalls), but rank 0 no longer
//     waits for reduction k to come back around the ring before it starts
//     reduction k+1 — a 26-parameter stage pays the ring's round trip
//     once, not 26 times, and each of those round trips was a chain of
//     goroutine wake-ups that a millisecond-scale step spent a third of
//     its time in. Any other group gets the calls one after another, so
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
//   - Sharded parameters (engine.Config.ShardParams) compose with any
//     transport: each stage's parameters partition greedily across the
//     local replica axis, secondary replicas detach storage they do not
//     own and gather-on-use into pooled buffers for the duration of one
//     op — resident parameter bytes on secondaries drop to roughly 1/R
//     of the full copy (engine.ShardStats reports the exact counts) while
//     the fold order, and therefore the math, is unchanged.
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
//   - Straggler feedback. Heartbeats carry each rank's last round wall
//     time; engine.RankSlowness distills the worst ratio and the autotuner
//     feeds it to hardware.Fit as a collective-cost scale, so re-planning
//     routes refresh work around a slow rank instead of pretending the
//     ring is uniform. Timelines stamp every event with the membership
//     view and mark the change with a Membership span (CSV "membership"
//     column, orange marker in SVG).
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
// whole round without goroutine teardown: cross-step dependency edges
// (optimizer-step to next forward, curvature fold to a later step's
// inversion) use the same completion channels as intra-step ones. Round
// contract:
//
//   - Factor ownership across step boundaries: the window's first step
//     snapshots the per-micro-batch statistics into pooled buffers owned
//     by the run state; the scheduled Curvature ops consume them in
//     whichever step's bubble the packer chose; the first Inversion op of
//     a layer folds every replica's partials into the per-stage
//     preconditioner's EMA (ascending global-micro order, under the
//     per-layer lock) and each Inversion op then swaps one cached inverse.
//     One round always completes exactly one refresh.
//   - Staleness semantics: the Precondition op of step j depends exactly
//     on the inversions the packer assigned to steps <= j, so each step
//     preconditions with the freshest completed inverses — and with the
//     previous refresh's inverses for factors still in flight, the
//     stale-but-cheap discipline of §3.1. FrontLoadRefresh pins the whole
//     refresh to the window's first step instead: the legacy skip cadence
//     expressed as a round, bit-identical to a RefreshSteps = 1 engine at
//     the same refresh interval (the round-vs-skip identity tests run on
//     this; refreshEvery must be a multiple of K either way).
//   - Step commits: every step's OptStep ops rendezvous at a barrier; the
//     last arriver fires the caller's optimizer callback (SetOptimizer),
//     zeroes the primary's accumulators, releases the step's carried
//     rollback clones, and re-broadcasts parameters to the replicas while
//     every device is parked — the one moment weights are written, which
//     is what lets Chimera's two directions read one copy of them without
//     a lock — so collectives and the update still happen exactly once per
//     step, with the bit-identical fixed reduction order. On failure the round aborts at round
//     granularity: committed steps stand, the failing step's gradient
//     state rolls back, and the step counter advances only past the
//     committed steps.
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
//     same fixed point at depth 1: one packing pass (schedule's
//     packGeneration) runs once per generation, deepest first, for every
//     depth.
//   - The engine double-buffers generation-tagged statistics pools
//     (kfacGenPool): a collect round snapshots and reduces into one pool
//     while the carried generation folds and inverts out of the other, so
//     a new window's snapshots never clobber factors still in flight. The
//     fold happens at first inversion touch of a layer per generation,
//     under the per-layer lock, scaled by the generation's own statistics
//     batch; cross-generation dependency edges order a layer's carried
//     fold before the newer generation's, keeping the EMA sequential.
//   - Preconditions keep §3.1's freshest-completed rule across the window
//     boundary: step j depends on the inversions of BOTH generations
//     assigned to steps <= j, so a factor whose inversion carried is
//     served stale for at most one extra window. An abort discards any
//     half-collected or half-delivered generation and forces the next
//     round to refresh from scratch.
//
// Adaptive round length: engine.Config.RefreshSteps =
// engine.AdaptiveRefreshSteps derives K at EnableKFAC time from measured
// work (schedule.AdaptiveRoundLength = Assign's refresh window) instead of
// a hand-picked flag. Assign places the refresh with the pass Executable
// emits its op list from, so the window it reports is by construction one
// the executed round fits (TestAdaptiveRoundLengthFitsExecutable).
// trace.BubbleUtilization / RenderBubbleSummary /
// WriteBubbleCSV quantify the result: per-device busy, refresh-filled and
// idle fractions (per step of the round in the CSV), with the
// refresh-filled share of the bubble budget as the headline number.
//
// # Fault tolerance contract
//
// The executor survives injected and real faults without ever trading
// away determinism. internal/faults builds seeded, reproducible fault
// plans — fail / stall / drop / corrupt actions pinned to named
// (step, device, op-kind, micro, generation) injection points, with
// optional firing counts (faults.Parse for the CLI spec grammar on the
// -faults flag, faults.Random for seeded soak plans). The plan hooks into
// the engine via engine.Config.FaultPlan; together with Config.OpTimeout
// and Config.OpRetries it switches the device loops onto the resilient
// dispatch path. When all three are unset the loops branch straight to the
// plain path — byte-identical behavior to an engine without the fault
// layer, CI-gated at exactly zero extra allocations and <2% throughput on
// the executor benchmarks.
//
// Resilience is layered, in escalation order:
//
//   - Watchdog: Config.OpTimeout arms a per-op deadline. An op that
//     exceeds it is converted into an attributed abort ("watchdog:
//     ... stalled") rather than a silent hang; parked devices unpark on
//     abort so a stalled collective cannot wedge the round.
//   - Retry with backoff: failed side-path ops (curvature, inversion,
//     sync-curvature) retry up to Config.OpRetries times with doubling
//     backoff from Config.RetryBackoff. The executed Timeline records the
//     retry count on the succeeding attempt's event (CSV "retries"
//     column).
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
//     touched by a failed or corrupt refresh (NaN/Inf partials are caught
//     before the fold). schedule.ValidateDegradedSafety proves the
//     licensing precondition on every rebuild: no base-path op may depend
//     on refresh output except Precondition-on-Inversion, the one edge
//     with a defined fallback.
//   - Checkpoint/replay: base-path faults (forward, backward, sync-grad,
//     precondition, opt-step) still abort, with the existing
//     round-granularity rollback and a root-cause error naming the
//     device, op, and — for injected faults — the injection point. With
//     Config.Checkpoint the engine snapshots parameters, gradient
//     accumulators, K-FAC state, step counters and (via
//     AttachOptimizerState) optimizer moments at every round start;
//     RestoreCheckpoint rewinds an aborted round so TrainRound can replay
//     the same batches. Replay after an injected abort reproduces the
//     fault-free parameters bit-identically — the identity tests assert
//     exact equality for BERT and GPT at W in {1, 2} under all three
//     schedules. Corruption (NaN/Inf) in base-path outputs is caught at
//     the step commit barrier before parameters update, so a corrupted
//     step can never commit.
//
// Abort hygiene holds at every injection point: the per-op-kind abort
// sweep asserts the root cause survives barrier aborts for every kind in
// the schedule, and the pool audit (tensor.SetPoolAudit / PoolLive)
// asserts the workspace pool returns to its steady-state live count after
// an abort at every (step, op-kind) — aborted and degraded rounds leak
// nothing.
//
// # Closed-loop tuning contract
//
// internal/autotune turns the offline configuration choice into a
// controller: the tuner refits the packing cost model from the engine's
// *executed* timelines, re-ranks the schedule candidate space under the
// fitted costs, and hot-swaps the engine to the predicted-best executable
// at a round boundary. Because predictions and execution share one
// schedule form (schedule.Executable), a ranking is a statement about
// exactly the op lists the engine would run; because the engine's
// micro-batch reduction order is fixed, a swap never changes the math —
// only the time it takes. The contract:
//
//   - Measurement hygiene: hardware.Fit ingests per-op durations from the
//     executed Timeline and estimates each op class by median over a
//     bounded ring. It must not trust what measurement cannot: whole
//     warm-up rounds are dropped, retried executions (duration includes
//     backoff) and Degraded placeholder spans are skipped, and aborted
//     rounds are never observed (their timelines are partial).
//   - Candidate space: schedule.Enumerate covers schedule family x round
//     length K x serialized/overlapped (x carry depth > 2) x inversion
//     sharding on the engine's fixed topology — the knobs a running
//     engine can swap at a round boundary. Stages, micro-batches and
//     data-parallel width are the machine; they are not searched.
//   - Ranking: schedule.Predict builds each candidate's executable
//     against the fitted costs and simulates one full refresh round; the
//     key is StepTime = RoundMakespan / K, which makes different round
//     lengths comparable. Ties break toward the serialized, shallower,
//     smaller configuration, so measurement noise can only ever flip a
//     decision toward simplicity (the committed K2 overlap-vs-serialized
//     benchmark gap is exactly such noise — the op lists are identical).
//   - Swap safety: engine.Reconfigure rebuilds the executable in place
//     between rounds. Parameters, optimizer state and step counters are
//     never touched. A swap whose packing tuple is unchanged preserves
//     in-flight carried generations and is bit-identical to not swapping
//     (identity-tested across schedules, models and W); a changed shape
//     scrubs pending generations and forces the next refresh from
//     scratch — the same discipline as an abort. Config.MinRelGain exists
//     because of that scrub: marginal predicted gains do not pay for
//     discarded refresh state, so the tuner holds below the threshold.
//   - Convergence artifact: every round appends a trace.TuneRecord with
//     the shape-normalized modeled-vs-measured error (each class as a
//     ratio to its side's Forward cost — modeled units are abstract,
//     measured ones are wall-clock, the *shape* is what packs). The error
//     shrinks once fitted costs are installed; trace.WriteTuneCSV /
//     RenderTuneLog are the match-the-model artifact, and the CI smoke
//     job asserts the bad-start run ends on a choice that beats its
//     starting configuration.
//
// The benchmark harness in bench_test.go regenerates the paper's tables
// and figures, and cmd/ plus examples/ provide runnable entry points
// (cmd/pipefisher -execute runs the sim/exec comparison end to end;
// -replicas executes the hybrid pipeline x data-parallel configuration,
// -refresh-steps the multi-step refresh rounds — 0 sizes them adaptively —
// -overlap the overlapped windows, -autotune the closed-loop tuner,
// with its per-round records written by -tune-csv, and -transport ring
// -group spawn:N the real multi-process socket ring, with -shard-params
// for ZeRO-style sharded parameters). The committed BENCH_tensor.json /
// BENCH_engine.json files are the perf-trajectory baseline;
// scripts/bench_compare.go reports benchstat-style deltas against them and
// CI fails on steady-state throughput regressions beyond 10%.
package repro
