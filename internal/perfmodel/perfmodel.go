// Package perfmodel implements the performance model of §3.3: pipeline
// step time T_pipe, the simulated makespan of the schedule pipeline.Build
// lays out (Table 1's C_f·T_f + C_b·T_b, held to it by
// pipeline.TestTable1AgainstSimulator), bubble time
// T_bubble = T_pipe − N_micro(T_f + T_b), the per-stage memory model
// M_pipe and M_kfac of Table 1, and the derived quantities the paper plots
// in Figures 5, 6 and 9-16 — throughput, (curvature+inversion)/bubble
// ratio, and the speedup of PipeFisher over naive K-FAC execution with
// update skipping.
package perfmodel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// Input configures one performance-model evaluation. It mirrors the axes of
// the paper's sweeps: architecture, pipeline depth D (one block per stage,
// as in Figure 5), micro-batch count and size, hardware, and activation
// recomputation.
type Input struct {
	Arch arch.Transformer
	GPU  hardware.GPU
	// Method is a pipeline.Methods() name; empty means Chimera.
	Method string
	// D is the number of pipeline stages (= pipeline depth).
	D int
	// NMicro is the number of micro-batches per device per iteration.
	NMicro int
	// BMicro is the micro-batch size.
	BMicro int
	// BlocksPerStage is the number of transformer blocks per stage
	// (1 in the paper's Figures 5-16; 3 in the Figure 3/4 profiles).
	BlocksPerStage int
	// Recompute enables activation recomputation (the "R" bars).
	Recompute bool
}

func (in Input) normalize() (Input, error) {
	if in.D <= 0 {
		return in, fmt.Errorf("perfmodel: D must be positive, got %d", in.D)
	}
	if in.NMicro <= 0 {
		in.NMicro = in.D
	}
	if in.BMicro <= 0 {
		return in, fmt.Errorf("perfmodel: BMicro must be positive, got %d", in.BMicro)
	}
	if in.BlocksPerStage <= 0 {
		in.BlocksPerStage = 1
	}
	if in.Method == "" {
		in.Method = "chimera"
	}
	return in, nil
}

// Model holds every quantity of the §3.3 performance model.
type Model struct {
	Input Input

	// Per-stage work times (one micro-batch where applicable).
	Tf    hardware.Microseconds // forward
	Tb    hardware.Microseconds // backward (includes recompute when on)
	Tcurv hardware.Microseconds // curvature for one micro-batch
	Tinv  hardware.Microseconds // inversion of all the stage's factors
	Tprec hardware.Microseconds // precondition per step

	// TPipe is the simulated step time of the vanilla schedule;
	// TBubble = TPipe − NMicro(Tf+Tb).
	TPipe   hardware.Microseconds
	TBubble hardware.Microseconds
	// TStep is the PipeFisher step time TPipe + Tprec.
	TStep hardware.Microseconds

	// Ratio is (NMicro·Tcurv + Tinv) / TBubble: the number of pipeline
	// steps needed to refresh the curvature information.
	Ratio float64

	// Throughput figures in sequences/second for the whole pipeline.
	ThroughputVanilla    float64 // vanilla pipeline (no K-FAC)
	ThroughputPipeFisher float64 // K-FAC with bubble filling
	ThroughputKFACSkip   float64 // naive K-FAC, refreshing every ceil(Ratio) steps
	ThroughputKFACNaive  float64 // naive K-FAC, refreshing every step

	// Memory is the per-device memory breakdown (bytes, worst-case stage).
	Memory MemoryModel
}

// MemoryModel is the per-device memory breakdown of Figure 5 (bottom), in
// bytes.
type MemoryModel struct {
	// Act is NMicro·Mact (activations retained for backward).
	Act float64
	// PeakErr is Mpeak_err (transient backward buffers).
	PeakErr float64
	// SaveErr is NMicro·Msave_err (errors retained for B_l factors).
	SaveErr float64
	// CurvInv is Mcurv + Minv (Kronecker factors and their inverses).
	CurvInv float64
	// ParamGrad is the parameters + gradients (2·stages-per-device·Mθ).
	ParamGrad float64
}

// Total sums the components.
func (m MemoryModel) Total() float64 {
	return m.Act + m.PeakErr + m.SaveErr + m.CurvInv + m.ParamGrad
}

// Evaluate computes the performance model.
func Evaluate(in Input) (*Model, error) {
	in, err := in.normalize()
	if err != nil {
		return nil, err
	}
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch:           in.Arch,
		BlocksPerStage: in.BlocksPerStage,
		MicroBatch:     in.BMicro,
		GPU:            in.GPU,
		Recompute:      in.Recompute,
	})
	if err != nil {
		return nil, err
	}
	m := &Model{
		Input: in,
		Tf:    costs.Forward,
		Tb:    costs.Backward,
		Tcurv: costs.CurvaturePerMicroBatch,
		Tinv:  costs.InversionTotal(),
		Tprec: costs.Precondition,
	}
	s, err := pipeline.Build(in.Method, pipeline.BuildConfig{Stages: in.D, MicroBatches: in.NMicro, Costs: costs})
	if err != nil {
		return nil, err
	}
	tl, err := pipeline.Run(s)
	if err != nil {
		return nil, err
	}
	n := in.NMicro
	m.TPipe = tl.Makespan
	m.TBubble = m.TPipe - hardware.Microseconds(n)*(m.Tf+m.Tb)
	m.TStep = m.TPipe + m.Tprec

	kfacWork := float64(n)*float64(m.Tcurv) + float64(m.Tinv)
	if m.TBubble > 0 {
		m.Ratio = kfacWork / float64(m.TBubble)
	} else {
		m.Ratio = kfacWork // effectively infinite; report the raw work
	}

	seqsPerStep := float64(n * in.BMicro)
	m.ThroughputVanilla = seqsPerStep / (float64(m.TPipe) * 1e-6)
	m.ThroughputPipeFisher = seqsPerStep / (float64(m.TStep) * 1e-6)
	// Naive K-FAC with skipping refreshes every k = ceil(Ratio) steps,
	// paying the full curvature+inversion work outside bubbles then.
	k := int(m.Ratio) + 1
	if k < 1 {
		k = 1
	}
	m.ThroughputKFACSkip = seqsPerStep / ((float64(m.TStep) + kfacWork/float64(k)) * 1e-6)
	m.ThroughputKFACNaive = seqsPerStep / ((float64(m.TStep) + kfacWork) * 1e-6)

	m.Memory = memoryModel(in, float64(len(s.Placement.Hosted[0])))
	return m, nil
}

// memoryModel is the per-device breakdown for a device hosting
// stagesPerDevice stages (Chimera's devices host a down and an up stage).
func memoryModel(in Input, stagesPerDevice float64) MemoryModel {
	a := in.Arch
	blocks := in.BlocksPerStage
	mm := MemoryModel{
		PeakErr:   a.BlockPeakErrorBytes(in.BMicro) * float64(blocks),
		SaveErr:   float64(in.NMicro) * a.BlockSaveErrorBytes(in.BMicro) * float64(blocks),
		CurvInv:   2 * a.BlockCurvatureBytes() * float64(blocks) * stagesPerDevice,
		ParamGrad: 2 * a.BlockParamBytes() * float64(blocks) * stagesPerDevice,
	}
	if in.Recompute {
		// Only the stage-boundary activations are retained per micro-batch
		// plus one in-flight full activation set.
		boundary := float64(in.BMicro) * float64(a.SeqLen) * float64(a.DModel) * 4
		mm.Act = float64(in.NMicro)*boundary + a.BlockActivationBytes(in.BMicro)*float64(blocks)
	} else {
		mm.Act = float64(in.NMicro) * a.BlockActivationBytes(in.BMicro) * float64(blocks)
	}
	return mm
}

// SpeedupVsSkip returns ThroughputPipeFisher / ThroughputKFACSkip — the
// bottom rows of Figures 6 and 11-16 ("up to about 1.4x when NMicro = D and
// BMicro is large").
func (m *Model) SpeedupVsSkip() float64 {
	if m.ThroughputKFACSkip == 0 {
		return 0
	}
	return m.ThroughputPipeFisher / m.ThroughputKFACSkip
}

// Fits reports whether the modeled memory fits the GPU.
func (m *Model) Fits() bool {
	return m.Memory.Total() <= m.Input.GPU.MemBytes
}

// SweepPoint is one point of a Figure 6-style sweep.
type SweepPoint struct {
	D, NMicro, BMicro int
	GPU               string
	Model             *Model
}

// Sweep evaluates the model over the grid the paper uses in Figures 6 and
// 11-16: D in depths, NMicro in {D, 2D, 3D}, BMicro in bmicros, for every
// GPU in gpus.
func Sweep(a arch.Transformer, method string, depths, bmicros []int, nmicroFactors []int, gpus []hardware.GPU) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, g := range gpus {
		for _, d := range depths {
			for _, factor := range nmicroFactors {
				for _, b := range bmicros {
					m, err := Evaluate(Input{
						Arch: a, GPU: g, Method: method,
						D: d, NMicro: factor * d, BMicro: b,
					})
					if err != nil {
						return nil, err
					}
					out = append(out, SweepPoint{
						D: d, NMicro: factor * d, BMicro: b, GPU: g.Name, Model: m,
					})
				}
			}
		}
	}
	return out, nil
}
