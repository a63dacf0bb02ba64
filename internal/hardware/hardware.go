// Package hardware models accelerator performance for the PipeFisher
// reproduction. The paper measures CUDA-kernel times on NVIDIA P100, V100
// and RTX 3090 GPUs; this repo has no GPUs, so the same quantities are
// produced by a roofline cost model: an operation takes
//
//	time = max(flops / (peakFLOPs * efficiency), bytes / bandwidth) + overhead
//
// which preserves the relative-cost structure the paper's performance model
// depends on (GEMM-heavy forward/backward/curvature scale with token count,
// inversion scales with factor size only, small ops are launch-bound).
//
// All times are expressed in integer microseconds so the discrete-event
// pipeline simulator is exactly reproducible.
package hardware

import "fmt"

// Microseconds is the simulator's time unit.
type Microseconds int64

// GPU describes one accelerator model.
type GPU struct {
	// Name identifies the device ("P100", "V100", "RTX3090").
	Name string
	// PeakFLOPs is the peak single-precision throughput in FLOP/s.
	PeakFLOPs float64
	// MemBandwidth is the device memory bandwidth in bytes/s.
	MemBandwidth float64
	// MemBytes is the device memory capacity in bytes.
	MemBytes float64
	// GemmEfficiency is the fraction of peak achieved by large GEMMs.
	GemmEfficiency float64
	// SmallOpEfficiency is the fraction of peak achieved by small or
	// skinny kernels (layer norm, bias, softmax, small factors).
	SmallOpEfficiency float64
	// KernelOverhead is the fixed per-kernel launch cost.
	KernelOverhead Microseconds
}

// Predefined device profiles. Peak numbers follow the vendor datasheets for
// the boards the paper uses; efficiencies are the usual 40-60% GEMM
// achievable fractions.
var (
	P100 = GPU{
		Name:              "P100",
		PeakFLOPs:         9.3e12,
		MemBandwidth:      732e9,
		MemBytes:          16e9,
		GemmEfficiency:    0.45,
		SmallOpEfficiency: 0.10,
		KernelOverhead:    5,
	}
	V100 = GPU{
		Name:              "V100",
		PeakFLOPs:         14.0e12,
		MemBandwidth:      900e9,
		MemBytes:          32e9,
		GemmEfficiency:    0.50,
		SmallOpEfficiency: 0.10,
		KernelOverhead:    5,
	}
	RTX3090 = GPU{
		Name:              "RTX3090",
		PeakFLOPs:         35.6e12,
		MemBandwidth:      936e9,
		MemBytes:          24e9,
		GemmEfficiency:    0.40,
		SmallOpEfficiency: 0.08,
		KernelOverhead:    4,
	}
)

// ByName returns the named profile ("P100", "V100", "RTX3090").
func ByName(name string) (GPU, error) {
	switch name {
	case "P100":
		return P100, nil
	case "V100":
		return V100, nil
	case "RTX3090":
		return RTX3090, nil
	}
	return GPU{}, fmt.Errorf("hardware: unknown GPU %q", name)
}

// All lists the predefined profiles in the order the paper plots them.
func All() []GPU { return []GPU{P100, V100, RTX3090} }

// Op is a single accelerator operation characterized by its arithmetic and
// memory traffic.
type Op struct {
	// FLOPs is the floating-point operation count.
	FLOPs float64
	// Bytes is the total device-memory traffic in bytes.
	Bytes float64
	// Kernels is the number of kernel launches the op maps to (>= 1).
	Kernels int
	// GEMMLike selects the GEMM efficiency instead of the small-op one.
	GEMMLike bool
}

// Time returns the modeled execution time of op on g.
func (g GPU) Time(op Op) Microseconds {
	eff := g.SmallOpEfficiency
	if op.GEMMLike {
		eff = g.GemmEfficiency
	}
	compute := op.FLOPs / (g.PeakFLOPs * eff)
	memory := op.Bytes / g.MemBandwidth
	seconds := compute
	if memory > seconds {
		seconds = memory
	}
	t := Microseconds(seconds * 1e6)
	kernels := op.Kernels
	if kernels < 1 {
		kernels = 1
	}
	t += Microseconds(kernels) * g.KernelOverhead
	if t < 1 {
		t = 1
	}
	return t
}

// Interconnect models the cluster fabric for collective communication. The
// paper reports that P2P costs are negligible and models collectives only as
// measured overheads; we keep a simple alpha-beta model so sync-grad and
// sync-curvature have realistic, size-dependent costs.
type Interconnect struct {
	// LatencyUS is the per-message latency (alpha) in microseconds.
	LatencyUS Microseconds
	// Bandwidth is the link bandwidth in bytes/s (beta^-1).
	Bandwidth float64
}

// DefaultInterconnect approximates the NVLink/IB fabric of the paper's
// cluster.
var DefaultInterconnect = Interconnect{LatencyUS: 10, Bandwidth: 10e9}

// AllReduceTime returns the modeled time of a ring all-reduce of size bytes
// across n participants (2(n-1)/n data movement factor).
func (ic Interconnect) AllReduceTime(bytes float64, n int) Microseconds {
	if n <= 1 {
		return 0
	}
	factor := 2 * float64(n-1) / float64(n)
	t := Microseconds(factor * bytes / ic.Bandwidth * 1e6)
	return t + ic.LatencyUS*Microseconds(n-1)
}

// ChainAllReduceCost models the chunked chain all-reduce the wire transport
// runs: a reduce pass rank 0 -> W-1 followed by a distribution pass, each
// crossing W-1 links, with the payload cut into chunks so link transfers of
// one chunk pipeline against the fold of the next. The pipelined transfer
// time is (2(W-1) + chunks - 1) chunk slots at bytes/chunks each, plus the
// per-hop message latency; more chunks amortize the serialization until the
// per-chunk latency dominates.
func ChainAllReduceCost(bytes int64, ranks, chunks int, ic Interconnect) Microseconds {
	if ranks <= 1 || bytes <= 0 {
		return 0
	}
	if chunks < 1 {
		chunks = 1
	}
	hops := 2 * (ranks - 1)
	chunkBytes := float64(bytes) / float64(chunks)
	transfer := Microseconds(float64(hops+chunks-1) * chunkBytes / ic.Bandwidth * 1e6)
	return transfer + ic.LatencyUS*Microseconds(hops)
}
