package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
)

func BenchmarkBuildAndRun(b *testing.B) {
	costs := unitCosts()
	builders := map[string]func(BuildConfig) (*Schedule, error){
		"gpipe":   BuildGPipe,
		"1f1b":    Build1F1B,
		"chimera": BuildChimera,
	}
	for name, build := range builders {
		for _, d := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/D=%d", name, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s, err := build(BuildConfig{Stages: d, MicroBatches: d, Steps: 2, Costs: costs})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Run(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCostsFor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CostsFor(CostConfig{
			Arch: arch.BERTLarge, BlocksPerStage: 3, MicroBatch: 32,
			GPU: hardware.P100, DataParallelWidth: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGapExtraction(b *testing.B) {
	s, err := BuildGPipe(BuildConfig{Stages: 8, MicroBatches: 8, Steps: 4, Costs: unitCosts()})
	if err != nil {
		b.Fatal(err)
	}
	tl, err := Run(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < tl.Devices; d++ {
			tl.Gaps(d, 0, tl.Makespan)
		}
	}
}
