package pipeline

import (
	"fmt"
	"slices"

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

// Equal compares two StageCosts value-wise.
func (c StageCosts) Equal(o StageCosts) bool {
	return c.Forward == o.Forward && c.Backward == o.Backward &&
		c.CurvaturePerMicroBatch == o.CurvaturePerMicroBatch &&
		c.Precondition == o.Precondition && c.OptStep == o.OptStep &&
		c.SyncGrad == o.SyncGrad && c.SyncCurvature == o.SyncCurvature &&
		slices.Equal(c.CurvatureUnits, o.CurvatureUnits) &&
		slices.Equal(c.InversionUnits, o.InversionUnits)
}

// Refit returns the costs with every work kind the estimator knows replaced
// by its estimate — how durations observed per op kind (an executed
// timeline's means, the auto-tuner's running medians) map back onto the
// fields the builders price ops with. Curvature and inversion are observed
// per kind, not per factor, so one estimate prices every unit (the units are
// fresh slices, the receiver's are left alone) and CurvaturePerMicroBatch is
// re-summed; a collective the receiver prices at zero is one its topology
// does not run, and stays unpriced.
func (c StageCosts) Refit(estimate func(WorkKind) (hardware.Microseconds, bool)) StageCosts {
	for _, k := range Kinds() {
		f := c.field(k)
		if f == nil || *f <= 0 && (k == SyncGrad || k == SyncCurvature) {
			continue
		}
		if m, ok := estimate(k); ok {
			*f = m
		}
	}
	if m, ok := estimate(Curvature); ok {
		c.CurvatureUnits = slices.Repeat([]hardware.Microseconds{m}, len(c.CurvatureUnits))
		c.CurvaturePerMicroBatch = m * hardware.Microseconds(len(c.CurvatureUnits))
	}
	if m, ok := estimate(Inversion); ok {
		c.InversionUnits = slices.Repeat([]hardware.Microseconds{m}, len(c.InversionUnits))
	}
	return c
}

// field returns the field that prices one op of kind k, or nil for the
// per-factor kinds (curvature, inversion) and the kinds nothing prices.
func (c *StageCosts) field(k WorkKind) *hardware.Microseconds {
	switch k {
	case Forward:
		return &c.Forward
	case Backward:
		return &c.Backward
	case Precondition:
		return &c.Precondition
	case OptStep:
		return &c.OptStep
	case SyncGrad:
		return &c.SyncGrad
	case SyncCurvature:
		return &c.SyncCurvature
	}
	return nil
}

// Cost returns the modeled duration of one op of kind k, read where Refit
// writes it: the kind's field, or the mean unit for curvature and
// inversion. Kinds nothing prices cost 0.
func (c StageCosts) Cost(k WorkKind) hardware.Microseconds {
	switch k {
	case Curvature:
		return meanUnit(c.CurvatureUnits)
	case Inversion:
		return meanUnit(c.InversionUnits)
	}
	if f := c.field(k); f != nil {
		return *f
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
	// Interconnect models the collective fabric; zero value uses
	// hardware.DefaultInterconnect.
	Interconnect hardware.Interconnect
	// Transport selects the collective cost model: "" or "loopback" prices
	// sync-grad/sync-curvature with the flat alpha-beta all-reduce, "ring"
	// with the chunked chain model of the socket transport
	// (hardware.ChainAllReduceCost at the transport's default chunk size) —
	// so simulated schedules and the auto-tuner rank transports too.
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
	ic := cfg.Interconnect
	if ic.Bandwidth == 0 {
		ic = hardware.DefaultInterconnect
	}

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
	// (hardware.Fit refits measured costs when the two must agree).
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
			invUnit := hardware.Op{
				FLOPs:    dd * dd * dd,
				Bytes:    3 * dd * dd * 4,
				Kernels:  2,
				GEMMLike: false,
			}
			costs.InversionUnits = append(costs.InversionUnits, g.Time(invUnit))
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

// ringChunks is the chunk count the ring transport would cut a payload of
// the given size into at its default chunk granularity.
func ringChunks(bytes float64) int {
	c := int(bytes / (8 * transport.DefaultChunkFloats))
	if c < 1 {
		c = 1
	}
	return c
}
