package pipeline

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/transport"
)

// StageCosts models the execution times of all work kinds for one pipeline
// stage, derived from the architecture, the number of transformer blocks
// per stage, the micro-batch size, and the device profile.
type StageCosts struct {
	// Forward and Backward are per micro-batch.
	Forward  hardware.Microseconds
	Backward hardware.Microseconds
	// CurvaturePerMicroBatch is the time to compute all Kronecker factors
	// of the stage for one micro-batch.
	CurvaturePerMicroBatch hardware.Microseconds
	// CurvatureUnits holds the per-factor curvature time for one
	// micro-batch, in the same order as InversionUnits. Factors alternate
	// A, B per K-FAC layer (A ready after forward, B after backward).
	CurvatureUnits []hardware.Microseconds
	// InversionUnits holds the time to invert each Kronecker factor of the
	// stage (the atomic units of inversion work / inversion parallelism).
	InversionUnits []hardware.Microseconds
	// InversionChains, where factor f has a non-empty entry, makes f's
	// inversion a chain of ops, one per entry, each the modeled time of one
	// top-level step of the blocked inverse (tensor.InverseChain; Op.Chain
	// numbers them), packed whole into bubbles one after another. Only the
	// execution engine's shape-priced costs set it, for factors whose
	// inversion outlasts a stage forward; nil inverts every factor as one op.
	InversionChains [][]hardware.Microseconds
	// Precondition is the per-step preconditioning time for the stage.
	Precondition hardware.Microseconds
	// OptStep is the per-step optimizer update time for the stage.
	OptStep hardware.Microseconds
	// SyncGrad and SyncCurvature are the per-step collective times when
	// data parallelism is enabled (0 otherwise).
	SyncGrad      hardware.Microseconds
	SyncCurvature hardware.Microseconds
}

// InversionTotal returns the summed inversion time of all factors.
func (c StageCosts) InversionTotal() hardware.Microseconds {
	var t hardware.Microseconds
	for _, u := range c.InversionUnits {
		t += u
	}
	return t
}

// Chain returns factor f's inversion chain: the modeled step times, or nil
// when the factor inverts as one op.
func (c StageCosts) Chain(f int) []hardware.Microseconds {
	if f < len(c.InversionChains) {
		return c.InversionChains[f]
	}
	return nil
}

// Cost returns the modeled duration of one op of kind k: the kind's field,
// or the mean over the kind's ops for curvature (one per factor) and
// inversion (one per factor, or one per step of a factor's chain). Kinds
// nothing prices cost 0.
func (c StageCosts) Cost(k WorkKind) hardware.Microseconds {
	switch k {
	case Forward:
		return c.Forward
	case Backward:
		return c.Backward
	case Precondition:
		return c.Precondition
	case OptStep:
		return c.OptStep
	case SyncGrad:
		return c.SyncGrad
	case SyncCurvature:
		return c.SyncCurvature
	case Curvature:
		return meanUnit(c.CurvatureUnits)
	case Inversion:
		var ops []hardware.Microseconds
		for f, u := range c.InversionUnits {
			if ch := c.Chain(f); len(ch) > 0 {
				ops = append(ops, ch...)
			} else {
				ops = append(ops, u)
			}
		}
		return meanUnit(ops)
	}
	return 0
}

func meanUnit(us []hardware.Microseconds) hardware.Microseconds {
	if len(us) == 0 {
		return 0
	}
	var s hardware.Microseconds
	for _, u := range us {
		s += u
	}
	return s / hardware.Microseconds(len(us))
}

// CostConfig selects the workload whose stage costs are being modeled.
type CostConfig struct {
	// Arch is the transformer architecture.
	Arch arch.Transformer
	// BlocksPerStage is the number of transformer blocks per stage.
	BlocksPerStage int
	// MicroBatch is B_micro.
	MicroBatch int
	// GPU is the device profile.
	GPU hardware.GPU
	// DataParallelWidth is W (replicas per stage); 1 disables collectives.
	DataParallelWidth int
	// Transport selects the collective cost model: "" or "loopback" prices
	// sync-grad/sync-curvature with the flat alpha-beta all-reduce, "ring"
	// with the chunked chain model of the socket transport
	// (hardware.ChainAllReduceCost at the transport's default chunk size) —
	// so simulated schedules price transports too.
	Transport string
	// Recompute enables activation recomputation: forward activations are
	// recomputed during backward, making backward cost fwd+bwd.
	Recompute bool
}

// CostsFor derives StageCosts from the configuration.
func CostsFor(cfg CostConfig) (StageCosts, error) {
	if cfg.BlocksPerStage <= 0 {
		return StageCosts{}, fmt.Errorf("pipeline: BlocksPerStage must be positive, got %d", cfg.BlocksPerStage)
	}
	if cfg.MicroBatch <= 0 {
		return StageCosts{}, fmt.Errorf("pipeline: MicroBatch must be positive, got %d", cfg.MicroBatch)
	}
	a, g := cfg.Arch, cfg.GPU
	blocks := float64(cfg.BlocksPerStage)
	ic := hardware.DefaultInterconnect

	fwdOp := hardware.Op{
		FLOPs:    a.BlockForwardFLOPs(cfg.MicroBatch) * blocks,
		Bytes:    (a.BlockActivationBytes(cfg.MicroBatch) + a.BlockParamBytes()) * blocks,
		Kernels:  8 * cfg.BlocksPerStage,
		GEMMLike: true,
	}
	bwdOp := hardware.Op{
		FLOPs:    a.BlockBackwardFLOPs(cfg.MicroBatch) * blocks,
		Bytes:    2 * (a.BlockActivationBytes(cfg.MicroBatch) + a.BlockParamBytes()) * blocks,
		Kernels:  12 * cfg.BlocksPerStage,
		GEMMLike: true,
	}
	costs := StageCosts{
		Forward:  g.Time(fwdOp),
		Backward: g.Time(bwdOp),
	}
	if cfg.Recompute {
		// Activation recomputation re-runs the forward inside backward.
		costs.Backward += costs.Forward
	}

	// One curvature unit per Kronecker factor per block per micro-batch
	// (U U^T costs 2·d²·tokens), and one inversion unit per factor
	// (Cholesky + cholesky_inverse, ~d³). GEMMLike false models the
	// paper's GPU, where cuSOLVER's potrf/potri run well below GEMM
	// efficiency; it says nothing about this host, whose
	// tensor.SPDInverseInto runs its O(d³) terms on the packed GEMM driver
	// (the engine prices it on its own host profile, GEMM efficiency
	// throughout).
	tokens := float64(cfg.MicroBatch) * float64(a.SeqLen)
	for b := 0; b < cfg.BlocksPerStage; b++ {
		for _, d := range a.FactorDims() {
			dd := float64(d)
			curvUnit := hardware.Op{
				FLOPs:    2 * dd * dd * tokens,
				Bytes:    (dd*dd + dd*tokens) * 4,
				Kernels:  1,
				GEMMLike: true,
			}
			ct := g.Time(curvUnit)
			costs.CurvatureUnits = append(costs.CurvatureUnits, ct)
			costs.CurvaturePerMicroBatch += ct
			costs.InversionUnits = append(costs.InversionUnits, InversionCost(g, d, dd*dd*dd))
		}
	}

	precOp := hardware.Op{
		FLOPs:    a.BlockPreconditionFLOPs() * blocks,
		Bytes:    2 * a.BlockCurvatureBytes() * blocks,
		Kernels:  2 * len(a.KFACLayers()) * cfg.BlocksPerStage,
		GEMMLike: true,
	}
	costs.Precondition = g.Time(precOp)

	// Optimizer update: element-wise over parameters and state (~4 reads +
	// 2 writes of the parameter-sized buffers for Adam/LAMB).
	paramBytes := a.BlockParamBytes() * blocks
	costs.OptStep = g.Time(hardware.Op{
		FLOPs:   a.BlockParams() * blocks * 8,
		Bytes:   6 * paramBytes,
		Kernels: 4,
	})

	if cfg.DataParallelWidth > 1 {
		curvBytes := a.BlockCurvatureBytes() * blocks
		switch cfg.Transport {
		case "", "loopback":
			costs.SyncGrad = ic.AllReduceTime(paramBytes, cfg.DataParallelWidth)
			costs.SyncCurvature = ic.AllReduceTime(curvBytes, cfg.DataParallelWidth)
		case "ring":
			costs.SyncGrad = hardware.ChainAllReduceCost(int64(paramBytes), cfg.DataParallelWidth, ringChunks(paramBytes), ic)
			costs.SyncCurvature = hardware.ChainAllReduceCost(int64(curvBytes), cfg.DataParallelWidth, ringChunks(curvBytes), ic)
		default:
			return StageCosts{}, fmt.Errorf("pipeline: unknown collective transport %q (want loopback or ring)", cfg.Transport)
		}
	}
	return costs, nil
}

// InversionCost prices the inversion op class on g: inverting a dim x dim
// Kronecker factor, or one step of its blocked inverse, doing flops FLOPs.
// CostsFor prices every inversion unit with it (flops = dim³); the execution
// engine prices its inversion chains' steps with it too.
func InversionCost(g hardware.GPU, dim int, flops float64) hardware.Microseconds {
	dd := float64(dim)
	return g.Time(hardware.Op{
		FLOPs:    flops,
		Bytes:    3 * dd * dd * 4,
		Kernels:  2,
		GEMMLike: false,
	})
}

// ringChunks is the chunk count the ring transport would cut a payload of
// the given size into at its default chunk granularity.
func ringChunks(bytes float64) int {
	c := int(bytes / (8 * transport.DefaultChunkFloats))
	if c < 1 {
		c = 1
	}
	return c
}
