package schedule

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
)

func benchCosts(b *testing.B, a arch.Transformer, blocks, micro, dp int) pipeline.StageCosts {
	b.Helper()
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: a, BlocksPerStage: blocks, MicroBatch: micro,
		GPU: hardware.P100, DataParallelWidth: dp,
	})
	if err != nil {
		b.Fatal(err)
	}
	return costs
}

func BenchmarkAssignGPipe(b *testing.B) {
	costs := benchCosts(b, arch.BERTBase, 3, 32, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignChimeraLarge(b *testing.B) {
	costs := benchCosts(b, arch.BERTLarge, 3, 32, 2)
	for i := 0; i < b.N; i++ {
		if _, err := Assign(Config{
			Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
			InversionParallel: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
