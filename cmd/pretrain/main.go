// Command pretrain reproduces the paper's convergence experiment
// (Figure 7 and Table 2) at laptop scale: it pretrains a tiny BERT on the
// synthetic corpus with NVLAMB and with K-FAC, reports steps-to-target, and
// converts steps to simulated wall-clock time using the pipeline
// simulator's measured step times — exactly the paper's methodology
// ("we simulate the time by multiplying the measured time per step by the
// total number of steps", §5).
//
// Both arms train through the engine at one stage: GPipe, one stage, one
// micro-batch, one-step rounds, with LAMB (weight decay 0.01) over the
// paper's poly-decay schedule, its warm-up scaled to -steps. The K-FAC arm
// refreshes curvature and inverses every 2 steps (kfac.DefaultOptions) and
// preconditions every step.
//
// Examples:
//
//	pretrain -steps 300 -batch 16            # run both optimizers, print Figure 7 summary
//	pretrain -optimizer kfac -steps 200      # single run with the loss curve
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pretrain: ")
	var (
		optName = flag.String("optimizer", "both", "nvlamb, kfac, or both")
		steps   = flag.Int("steps", 300, "training steps")
		batch   = flag.Int("batch", 16, "mini-batch size (sequences)")
		seed    = flag.Uint64("seed", 100, "model seed")
		dataSd  = flag.Uint64("dataseed", 200, "corpus seed")
		curve   = flag.Bool("curve", false, "print per-step losses")
	)
	flag.Parse()

	switch *optName {
	case "both":
		nv := run("nvlamb", *steps, *batch, *seed, *dataSd, *curve)
		kf := run("kfac", *steps, *batch, *seed, *dataSd, *curve)
		summarize(nv, kf, *steps)
	case "nvlamb", "kfac":
		run(*optName, *steps, *batch, *seed, *dataSd, true)
	default:
		log.Fatalf("unknown optimizer %q", *optName)
	}
}

// run trains one arm, "nvlamb" or "kfac", and returns its per-step losses.
func run(opt string, steps, batch int, seed, dataSeed uint64, curve bool) []float64 {
	model, err := bert.New(bert.TinyConfig(), seed)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, dataSeed)
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.NewWithConfig(model, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		log.Fatal(err)
	}
	paper := optim.NewNVLAMBSchedule()
	if opt == "kfac" {
		if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
			log.Fatal(err)
		}
		paper = optim.NewKFACSchedule()
	}
	lamb := optim.NewLAMB(model.Params(), 0.01)
	lr := optim.PolyDecaySchedule{
		BaseLR: 1e-2, WarmupSteps: paper.WarmupSteps * steps / paper.TotalSteps, TotalSteps: steps, Power: 0.5,
	}
	e.SetOptimizer(func(step int) error {
		lamb.Step(lr.LR(step))
		return nil
	})
	batchCfg := data.DefaultBatchConfig(model.Config.SeqLen)
	losses := make([]float64, steps)
	for t := range losses {
		res, err := e.TrainStep(corpus.MakeBatch(batch, batchCfg))
		if err != nil {
			log.Fatal(err)
		}
		losses[t] = res.Loss.Total
	}
	var curv, inv int
	if pre := e.KFACStates(0); pre != nil {
		curv, inv = pre.States()[0].CurvatureUpdates, pre.States()[0].InverseUpdates
	}
	fmt.Printf("%s: final loss %.4f (%d curvature, %d inverse refreshes)\n",
		opt, optim.FinalLoss(losses), curv, inv)
	if curve {
		for t := 0; t < len(losses); t += 10 {
			fmt.Printf("  step %4d  loss %.4f\n", t, losses[t])
		}
	}
	return losses
}

// summarize prints the Figure 7-style comparison: steps-to-target plus the
// simulated wall-clock times using Chimera step times from the simulator
// (BERT-Base, 4 stages, the §4 setup).
func summarize(nv, kf []float64, steps int) {
	nvFinal := optim.FinalLoss(nv)
	kSteps := optim.StepsToReach(kf, nvFinal)
	fmt.Println()
	fmt.Printf("NVLAMB final loss:  %.4f after %d steps\n", nvFinal, steps)
	if kSteps < 0 {
		fmt.Println("K-FAC did not reach the NVLAMB final loss")
		return
	}
	fmt.Printf("K-FAC reaches it at step %d (%.1f%% of steps; paper: 42.0%%)\n",
		kSteps, 100*float64(kSteps)/float64(steps))

	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: arch.BERTBase, BlocksPerStage: 3, MicroBatch: 32, GPU: hardware.P100,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.Assign(schedule.Config{
		Method: "chimera", Stages: 4, MicroBatches: 4, Costs: costs, InversionParallel: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	nvTime := float64(res.VanillaStepTime) / 1e6 * float64(steps)
	kfTime := float64(res.StepTime) / 1e6 * float64(kSteps)
	fmt.Printf("\nsimulated wall-clock (Chimera step times, BERT-Base, 4 stages, P100):\n")
	fmt.Printf("  NVLAMB by Chimera:            %.1f ms/step x %d = %.1f s\n",
		float64(res.VanillaStepTime)/1000, steps, nvTime)
	fmt.Printf("  K-FAC by Chimera+PipeFisher:  %.1f ms/step x %d = %.1f s (%.1f%% of NVLAMB; paper: 48.7%%)\n",
		float64(res.StepTime)/1000, kSteps, kfTime, 100*kfTime/nvTime)
	fmt.Printf("  GPU utilization: %.1f%% -> %.1f%% (paper: 75.9%% -> 93.2%%)\n",
		100*res.VanillaUtilization, 100*res.Utilization)
}
