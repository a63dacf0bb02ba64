package perfmodel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/hardware"
)

// MaxMicroBatch returns the largest power-of-two micro-batch size whose
// modeled memory fits the GPU for the given pipeline configuration — the
// calculation behind the paper's choice of B_micro = 32 as "the maximum
// number of powers of 2 that can be placed on a P100 GPU" (§4).
// It returns an error when even B_micro = 1 does not fit.
func MaxMicroBatch(a arch.Transformer, g hardware.GPU, method string, d, nMicro, blocksPerStage int, recompute bool) (int, error) {
	best := 0
	for b := 1; b <= 1<<14; b *= 2 {
		m, err := Evaluate(Input{
			Arch: a, GPU: g, Method: method,
			D: d, NMicro: nMicro, BMicro: b,
			BlocksPerStage: blocksPerStage, Recompute: recompute,
		})
		if err != nil {
			return 0, err
		}
		if !m.Fits() {
			break
		}
		best = b
	}
	if best == 0 {
		return 0, fmt.Errorf("perfmodel: %s does not fit %s even at B_micro = 1", a.Name, g.Name)
	}
	return best, nil
}

// RefreshInterval converts the (curvature+inversion)/bubble ratio to the
// integer number of pipeline steps between curvature refreshes, as the
// paper quotes ("refreshed within a maximum of 2 steps", "once in 5-10
// steps").
func (m *Model) RefreshInterval() int {
	k := int(m.Ratio)
	if float64(k) < m.Ratio {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}
