// Chimera example: the Figure 4 experiment — BERT-Large on a bidirectional
// Chimera pipeline with 8 stages, with PipeFisher's K-FAC work assignment
// combined with data AND inversion parallelism (§3.2). Each stage lives on
// two devices (one per pipeline direction); curvature is computed where the
// data lives, inversion work is split across the pair, and sync-curvature
// collectives run inside bubbles too.
//
// It then executes a Chimera schedule for real: a tiny BERT trains through
// the schedule-driven engine with both pipeline directions sharing each
// stage's parameters, K-FAC work running in the bubbles, and the executed
// timeline rendered below the simulated ones.
//
// Run: go run ./examples/chimera
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/trace"
)

func main() {
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch:              arch.BERTLarge,
		BlocksPerStage:    3, // 24 blocks over 8 stages
		MicroBatch:        32,
		GPU:               hardware.P100,
		DataParallelWidth: 2, // sizes the sync-grad / sync-curvature collectives
	})
	if err != nil {
		log.Fatal(err)
	}

	// Without inversion parallelism: one device of each pair inverts all
	// of the stage's Kronecker factors.
	solo, err := schedule.Assign(schedule.Config{
		Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
	})
	if err != nil {
		log.Fatal(err)
	}
	// With it: factors split across the pair, amortizing the largest
	// non-GEMM work (Figure 4 bottom).
	pair, err := schedule.Assign(schedule.Config{
		Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
		InversionParallel: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := trace.RenderASCII(os.Stdout, pair.VanillaTimeline, 110); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := trace.RenderASCII(os.Stdout, pair.Timeline, 110); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Printf("Chimera (vanilla):                    util %.1f%%, step %.1f ms\n",
		100*pair.VanillaUtilization, float64(pair.VanillaStepTime)/1000)
	fmt.Printf("w/ PipeFisher:                        util %.1f%%, step %.1f ms, refresh %d step(s)\n",
		100*solo.Utilization, float64(solo.StepTime)/1000, solo.RefreshSteps)
	fmt.Printf("w/ PipeFisher + inversion parallel:   util %.1f%%, step %.1f ms, refresh %d step(s)\n",
		100*pair.Utilization, float64(pair.StepTime)/1000, pair.RefreshSteps)
	fmt.Println("\npaper (Figure 4): utilization 59.8% -> 97.6%, refresh 2-4 steps")
	fmt.Println(trace.Summarize(pair.Timeline))

	// Real execution: the same schedule family actually training a model.
	fmt.Println("--- real Chimera execution (tiny BERT, 2 stages, K-FAC in bubbles) ---")
	model, err := bert.New(bert.TinyConfig(), 7)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := engine.NewWithConfig(model, engine.Config{Method: "chimera", Stages: 2, MicroBatches: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
		log.Fatal(err)
	}
	params := model.Params()
	opt := optim.NewLAMB(params, 0.01)
	for step := 0; step < 21; step++ {
		batch := corpus.MakeBatch(16, data.DefaultBatchConfig(model.Config.SeqLen))
		res, err := eng.TrainStep(batch)
		if err != nil {
			log.Fatal(err)
		}
		opt.Step(3e-3)
		if step%5 == 0 {
			fmt.Printf("step %2d  loss %.4f  refreshed=%v\n", step, res.Loss.Total, res.Refreshed)
		}
	}
	fmt.Println()
	if err := trace.RenderASCII(os.Stdout, eng.LastTimeline(), 110); err != nil {
		log.Fatal(err)
	}
}
