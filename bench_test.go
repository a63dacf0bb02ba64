// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding experiment and
// reports the headline quantities as custom metrics (utilization %,
// refresh steps, ratios, minutes), so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. Absolute times differ
// from the authors' P100 testbed (our substrate is a calibrated simulator,
// see doc.go), but the shapes — who wins, by what factor, where the
// crossovers fall — are asserted in the package test suites and visible in
// the metrics here. benchmark/README.md defines the measured end-to-end
// counterparts (kfac_overhead, time_to_loss_ratio) on the real engine.
package repro

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// costsFor builds stage costs for the profile experiments.
func costsFor(b *testing.B, a arch.Transformer, blocks, micro, dp int) pipeline.StageCosts {
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

func assign(b *testing.B, cfg schedule.Config) *schedule.Result {
	b.Helper()
	res, err := schedule.Assign(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure1_GPipeSchematic reproduces the schematic schedule of
// Figure 1: GPipe with 4 stages, 4 micro-batches, 4 devices, and PipeFisher
// refreshing the curvature over (about) two pipeline steps.
func BenchmarkFigure1_GPipeSchematic(b *testing.B) {
	costs := costsFor(b, arch.BERTBase, 1, 32, 1)
	var res *schedule.Result
	for i := 0; i < b.N; i++ {
		res = assign(b, schedule.Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	}
	b.ReportMetric(100*res.VanillaUtilization, "vanilla-util-%")
	b.ReportMetric(100*res.Utilization, "pipefisher-util-%")
	b.ReportMetric(float64(res.RefreshSteps), "refresh-steps")
}

// BenchmarkFigure3_GPipe1F1BUtilization reproduces Figure 3: GPipe and 1F1B
// profiles for BERT-Base (4 stages x 3 blocks, N=4, B=32, P100), vanilla vs
// PipeFisher vs PipeFisher with data & inversion parallelism (8 GPUs).
// Paper: 41.7% -> 89.0% (GPipe), 41.5% -> 88.7% (1F1B), 86.2/86.3% w/ DP.
func BenchmarkFigure3_GPipe1F1BUtilization(b *testing.B) {
	for _, method := range []string{"gpipe", "1f1b"} {
		b.Run(method, func(b *testing.B) {
			costs := costsFor(b, arch.BERTBase, 3, 32, 1)
			var res *schedule.Result
			for i := 0; i < b.N; i++ {
				res = assign(b, schedule.Config{Method: method, Stages: 4, MicroBatches: 4, Costs: costs})
			}
			b.ReportMetric(100*res.VanillaUtilization, "vanilla-util-%")
			b.ReportMetric(100*res.Utilization, "pipefisher-util-%")
			b.ReportMetric(float64(res.RefreshSteps), "refresh-steps")
		})
		b.Run(method+"-data-inv-parallel", func(b *testing.B) {
			costs := costsFor(b, arch.BERTBase, 3, 32, 2)
			var res *schedule.Result
			for i := 0; i < b.N; i++ {
				res = assign(b, schedule.Config{
					Method: method, Stages: 4, MicroBatches: 4, Costs: costs,
					DataParallelWidth: 2, InversionParallel: true,
				})
			}
			b.ReportMetric(100*res.Utilization, "pipefisher-util-%")
			b.ReportMetric(float64(res.Timeline.Devices), "gpus")
		})
	}
}

// BenchmarkFigure4_ChimeraUtilization reproduces Figure 4: Chimera with
// BERT-Large (8 stages x 3 blocks, N=8, B=32) vanilla vs PipeFisher with
// data & inversion parallelism. Paper: utilization 59.8% -> 97.6%.
func BenchmarkFigure4_ChimeraUtilization(b *testing.B) {
	costs := costsFor(b, arch.BERTLarge, 3, 32, 2)
	var res *schedule.Result
	for i := 0; i < b.N; i++ {
		res = assign(b, schedule.Config{
			Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
			InversionParallel: true,
		})
	}
	b.ReportMetric(100*res.VanillaUtilization, "vanilla-util-%")
	b.ReportMetric(100*res.Utilization, "pipefisher-util-%")
	b.ReportMetric(float64(res.RefreshSteps), "refresh-steps")
	b.ReportMetric(float64(res.StepTime)/1000, "step-ms")
}

// BenchmarkFigure5_PerfModelChimeraBase evaluates the §3.3 performance
// model over the Figure 5 grid (Chimera, BERT-Base blocks, D in {4,8,16},
// B_micro in {8,16,32}, with and without recomputation).
func BenchmarkFigure5_PerfModelChimeraBase(b *testing.B) {
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		for _, bm := range []int{8, 16, 32} {
			for _, d := range []int{4, 8, 16} {
				for _, rec := range []bool{false, true} {
					m, err := perfmodel.Evaluate(perfmodel.Input{
						Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera",
						D: d, NMicro: d, BMicro: bm, Recompute: rec,
					})
					if err != nil {
						b.Fatal(err)
					}
					lastRatio = m.Ratio
				}
			}
		}
	}
	b.ReportMetric(lastRatio, "ratio-D16-B32-R")
}

// scalingBench runs the Figure 6 / 11-16 sweep for one architecture and
// reports the corner ratios.
func scalingBench(b *testing.B, a arch.Transformer, bmicros []int) {
	var pts []perfmodel.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = perfmodel.Sweep(a, "chimera", []int{4, 8, 16, 32}, bmicros, []int{1, 2, 3}, hardware.All())
		if err != nil {
			b.Fatal(err)
		}
	}
	var minR, maxR, maxSpeedup float64
	minR = 1e18
	for _, p := range pts {
		if p.Model.Ratio < minR {
			minR = p.Model.Ratio
		}
		if p.Model.Ratio > maxR {
			maxR = p.Model.Ratio
		}
		if s := p.Model.SpeedupVsSkip(); s > maxSpeedup {
			maxSpeedup = s
		}
	}
	b.ReportMetric(minR, "ratio-min")
	b.ReportMetric(maxR, "ratio-max")
	b.ReportMetric(maxSpeedup, "speedup-vs-skip-max")
	b.ReportMetric(float64(len(pts)), "sweep-points")
}

// BenchmarkFigure6_ScalingBERTBase reproduces Figure 6 (= Figure 11).
func BenchmarkFigure6_ScalingBERTBase(b *testing.B) {
	scalingBench(b, arch.BERTBase, []int{1, 2, 4, 8, 16, 32, 64})
}

// BenchmarkFigure7_ConvergenceBERTBase reproduces the Figure 7 comparison
// at laptop scale: tiny-BERT MLM+NSP pretraining with NVLAMB vs K-FAC.
// Paper: K-FAC reaches NVLAMB's final loss in 42.0% of the steps and 48.7%
// of the wall-clock time (applying Chimera step times).
func BenchmarkFigure7_ConvergenceBERTBase(b *testing.B) {
	const steps = 300
	var fracSteps, fracTime float64
	for i := 0; i < b.N; i++ {
		nv := trainTinyBERT(b, steps, 16, kfac.Options{}, 0)
		kf := trainTinyBERT(b, steps, 16, kfac.DefaultOptions(), 2)
		at := optim.StepsToReach(kf, optim.FinalLoss(nv))
		if at < 0 {
			at = steps
		}
		fracSteps = float64(at) / float64(steps)
		// Convert to time with the Chimera step-time ratio (§4): the
		// PipeFisher step is only ~4-7% longer than the vanilla step.
		costs := costsFor(b, arch.BERTBase, 3, 32, 1)
		res := assign(b, schedule.Config{Method: "chimera", Stages: 4, MicroBatches: 4, Costs: costs, InversionParallel: true})
		fracTime = fracSteps * float64(res.StepTime) / float64(res.VanillaStepTime)
	}
	b.ReportMetric(100*fracSteps, "kfac-steps-%-of-nvlamb") // paper: 42.0
	b.ReportMetric(100*fracTime, "kfac-time-%-of-nvlamb")   // paper: 48.7
}

// trainTinyBERT pretrains a tiny BERT (model seed 100, corpus seed 200)
// through the engine at one stage — GPipe, one stage, one micro-batch —
// with LAMB over the paper's poly-decay schedule, its warm-up scaled to
// steps, and returns the per-step losses. With kfacEvery > 0 it trains
// K-FAC under opts, refreshing every kfacEvery steps; with 0, NVLAMB.
func trainTinyBERT(b *testing.B, steps, batch int, opts kfac.Options, kfacEvery int) []float64 {
	b.Helper()
	m, err := bert.New(bert.TinyConfig(), 100)
	if err != nil {
		b.Fatal(err)
	}
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 200)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.NewWithConfig(m, engine.Config{Method: "gpipe", Stages: 1, MicroBatches: 1})
	if err != nil {
		b.Fatal(err)
	}
	paper := optim.NewNVLAMBSchedule()
	if kfacEvery > 0 {
		if err := e.EnableKFAC(opts, kfacEvery); err != nil {
			b.Fatal(err)
		}
		paper = optim.NewKFACSchedule()
	}
	lamb := optim.NewLAMB(m.Params(), 0.01)
	lr := optim.PolyDecaySchedule{
		BaseLR: 1e-2, WarmupSteps: paper.WarmupSteps * steps / paper.TotalSteps, TotalSteps: steps, Power: 0.5,
	}
	e.SetOptimizer(func(step int) error {
		lamb.Step(lr.LR(step))
		return nil
	})
	losses := make([]float64, steps)
	for t := range losses {
		res, err := e.TrainStep(c.MakeBatch(batch, data.DefaultBatchConfig(m.Config.SeqLen)))
		if err != nil {
			b.Fatal(err)
		}
		losses[t] = res.Loss.Total
	}
	return losses
}

// BenchmarkFigure8_LRSchedule evaluates the two Phase-1 learning-rate
// schedules of Figure 8 over all 7038 steps.
func BenchmarkFigure8_LRSchedule(b *testing.B) {
	nv := optim.NewNVLAMBSchedule()
	kf := optim.NewKFACSchedule()
	var peakGap float64
	for i := 0; i < b.N; i++ {
		peakGap = 0
		for t := 0; t < 7038; t++ {
			if gap := kf.LR(t) - nv.LR(t); gap > peakGap {
				peakGap = gap
			}
		}
	}
	b.ReportMetric(peakGap*1000, "peak-lr-gap-x1e3")
	b.ReportMetric(nv.LR(1999)*1000, "nvlamb-lr-at-2000-x1e3")
}

// BenchmarkFigure9_PerfModelBase evaluates the Figure 9 grids (GPipe/1F1B
// and Chimera, BERT-Base).
func BenchmarkFigure9_PerfModelBase(b *testing.B) {
	var gRatio, cRatio float64
	for i := 0; i < b.N; i++ {
		for _, method := range []string{"gpipe", "chimera"} {
			for _, bm := range []int{8, 16, 32} {
				for _, d := range []int{4, 8, 16} {
					m, err := perfmodel.Evaluate(perfmodel.Input{
						Arch: arch.BERTBase, GPU: hardware.P100, Method: method,
						D: d, NMicro: d, BMicro: bm,
					})
					if err != nil {
						b.Fatal(err)
					}
					if method == "gpipe" {
						gRatio = m.Ratio
					} else {
						cRatio = m.Ratio
					}
				}
			}
		}
	}
	b.ReportMetric(gRatio, "gpipe-ratio-D16-B32")
	b.ReportMetric(cRatio, "chimera-ratio-D16-B32")
}

// BenchmarkFigure10_PerfModelLarge is the BERT-Large version of Figure 10.
func BenchmarkFigure10_PerfModelLarge(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		for _, method := range []string{"gpipe", "chimera"} {
			for _, bm := range []int{8, 16, 32} {
				for _, d := range []int{4, 8, 16} {
					m, err := perfmodel.Evaluate(perfmodel.Input{
						Arch: arch.BERTLarge, GPU: hardware.P100, Method: method,
						D: d, NMicro: d, BMicro: bm,
					})
					if err != nil {
						b.Fatal(err)
					}
					tput = m.ThroughputPipeFisher
				}
			}
		}
	}
	b.ReportMetric(tput, "chimera-tput-D16-B32-seqs/s")
}

// BenchmarkFigure12_ScalingBERTLarge reproduces Figure 12.
func BenchmarkFigure12_ScalingBERTLarge(b *testing.B) {
	scalingBench(b, arch.BERTLarge, []int{1, 2, 4, 8, 16, 32, 64})
}

// BenchmarkFigure13_ScalingT5Base reproduces Figure 13 (S = 512).
func BenchmarkFigure13_ScalingT5Base(b *testing.B) {
	scalingBench(b, arch.T5Base, []int{1, 2, 4, 8, 16, 32, 64})
}

// BenchmarkFigure14_ScalingT5Large reproduces Figure 14.
func BenchmarkFigure14_ScalingT5Large(b *testing.B) {
	scalingBench(b, arch.T5Large, []int{1, 2, 4, 8, 16, 32, 64})
}

// BenchmarkFigure15_ScalingOPT125M reproduces Figure 15 (S = 2048, B <= 8).
func BenchmarkFigure15_ScalingOPT125M(b *testing.B) {
	scalingBench(b, arch.OPT125M, []int{1, 2, 4, 8})
}

// BenchmarkFigure16_ScalingOPT350M reproduces Figure 16.
func BenchmarkFigure16_ScalingOPT350M(b *testing.B) {
	scalingBench(b, arch.OPT350M, []int{1, 2, 4, 8})
}

// BenchmarkTable2_BERTLargePhase1 reproduces Table 2: Phase-1 BERT-Large
// training time with NVLAMB/Chimera (7038 steps) vs K-FAC/Chimera w/
// PipeFisher (5000 steps, per Pauloski et al. 2022). Paper: 275.1 min vs
// 208.3 min (75.7%), step times 2345.6 ms vs 2499.5 ms (+6.5%).
func BenchmarkTable2_BERTLargePhase1(b *testing.B) {
	const (
		nvlambSteps = 7038
		kfacSteps   = 5000
	)
	var res *schedule.Result
	costs := costsFor(b, arch.BERTLarge, 3, 32, 2)
	for i := 0; i < b.N; i++ {
		res = assign(b, schedule.Config{
			Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
			InversionParallel: true,
		})
	}
	nvMin := float64(res.VanillaStepTime) / 1e6 / 60 * nvlambSteps
	kfMin := float64(res.StepTime) / 1e6 / 60 * kfacSteps
	b.ReportMetric(float64(res.VanillaStepTime)/1000, "nvlamb-step-ms") // paper: 2345.6
	b.ReportMetric(float64(res.StepTime)/1000, "kfac-step-ms")          // paper: 2499.5
	b.ReportMetric(nvMin, "nvlamb-phase1-min")                          // paper: 275.1
	b.ReportMetric(kfMin, "kfac-phase1-min")                            // paper: 208.3
	b.ReportMetric(100*kfMin/nvMin, "kfac-time-%-of-nvlamb")            // paper: 75.7
	b.ReportMetric(100*res.VanillaUtilization, "vanilla-util-%")        // paper: 59.8
	b.ReportMetric(100*res.Utilization, "pipefisher-util-%")            // paper: 97.6
}

// BenchmarkTable3_Architectures exercises the Table 3 architecture
// definitions and their derived work/memory quantities.
func BenchmarkTable3_Architectures(b *testing.B) {
	var checksum float64
	for i := 0; i < b.N; i++ {
		checksum = 0
		for _, a := range arch.All() {
			checksum += a.BlockForwardFLOPs(8) + a.BlockInversionFLOPs() + a.BlockParamBytes()
		}
	}
	b.ReportMetric(checksum/1e12, "tflops-checksum")
	b.ReportMetric(float64(len(arch.All())), "architectures")
}

// --- Ablation benches for the design choices called out in doc.go ---

// BenchmarkAblationInversionParallel compares PipeFisher's refresh interval
// and utilization with and without inversion parallelism on Chimera.
func BenchmarkAblationInversionParallel(b *testing.B) {
	costs := costsFor(b, arch.BERTLarge, 3, 32, 2)
	for _, inv := range []bool{false, true} {
		name := "off"
		if inv {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var res *schedule.Result
			for i := 0; i < b.N; i++ {
				res = assign(b, schedule.Config{
					Method: "chimera", Stages: 8, MicroBatches: 8, Costs: costs,
					InversionParallel: inv,
				})
			}
			b.ReportMetric(float64(res.RefreshSteps), "refresh-steps")
			b.ReportMetric(100*res.Utilization, "util-%")
		})
	}
}

// BenchmarkAblationRefreshCadence varies the K-FAC curvature/inversion
// refresh interval in real training, quantifying the cost of stale
// curvature that PipeFisher's frequent refreshes avoid.
func BenchmarkAblationRefreshCadence(b *testing.B) {
	for _, every := range []int{2, 16} {
		b.Run(map[int]string{2: "fresh-every-2", 16: "stale-every-16"}[every], func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				final = optim.FinalLoss(trainTinyBERT(b, 80, 8, kfac.DefaultOptions(), every))
			}
			b.ReportMetric(final, "final-loss")
		})
	}
}

// BenchmarkAblationNoSplit quantifies the paper's bubble-spilling rule:
// forbidding work items to span multiple bubbles slows the refresh or
// strands work.
func BenchmarkAblationNoSplit(b *testing.B) {
	costs := costsFor(b, arch.BERTBase, 3, 32, 1)
	for _, noSplit := range []bool{false, true} {
		name := "split"
		if noSplit {
			name = "whole-bubble-only"
		}
		b.Run(name, func(b *testing.B) {
			var res *schedule.Result
			for i := 0; i < b.N; i++ {
				res = assign(b, schedule.Config{
					Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs, NoSplit: noSplit,
				})
			}
			b.ReportMetric(float64(res.RefreshSteps), "refresh-steps")
			b.ReportMetric(float64(res.Unassigned), "unassigned")
			b.ReportMetric(100*res.Utilization, "util-%")
		})
	}
}

// BenchmarkAblationDamping sweeps the K-FAC damping, the one numerical
// hyperparameter the preconditioner adds.
func BenchmarkAblationDamping(b *testing.B) {
	for _, damping := range []float64{1e-3, 1e-1} {
		b.Run(map[float64]string{1e-3: "damping-1e-3", 1e-1: "damping-1e-1"}[damping], func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				opts := kfac.DefaultOptions()
				opts.Damping = damping
				final = optim.FinalLoss(trainTinyBERT(b, 80, 8, opts, 2))
			}
			b.ReportMetric(final, "final-loss")
		})
	}
}

// BenchmarkEngineStep measures per-step throughput of the *real* executor
// at data-parallel widths W = 1 and W = 2: the same global batch, either
// on one pipeline or sharded across two replicas with the in-process
// gradient collective. The chimera row is the schedule the paper headlines,
// at the paired benchmark's base_chimera_k4 block shape (D = 2, N = 4): its
// two devices run the two pipeline directions at the same time on
// per-direction module sets, so its seqs/s is a 2-core-host number — on one
// core the directions take turns again. CI distills these rows into
// BENCH_engine.json so the perf trajectory covers the executor, not just
// the kernels.
func BenchmarkEngineStep(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			benchEngineStep(b, bert.TinyConfig(), engine.Config{
				Method: "1f1b", Stages: 2, MicroBatches: 4 / w, Replicas: w,
			})
		})
	}
	b.Run("chimera", func(b *testing.B) { // 2-core host: both directions at once
		benchEngineStep(b, chimeraBenchModel, engine.Config{Method: "chimera", Stages: 2, MicroBatches: 4})
	})
}

// chimeraBenchModel is benchmark/'s base_chimera_k4 model: the paper's
// regime, where forward/backward/recompute do most of a step's work.
var chimeraBenchModel = bert.Config{VocabSize: 512, DModel: 64, DFF: 256, Heads: 4, Blocks: 2, SeqLen: 64}

// benchEngine builds the engine of an executor bench row and logs, once
// per run, which micro-kernel tiles the rows were measured on: seqs/s from
// the 256-bit and the 512-bit tiles of the fma variant are not comparable,
// and the row names only say "fma".
func benchEngine(b *testing.B, m *bert.Model, cfg engine.Config) *engine.Engine {
	b.Helper()
	logKernel.Do(func() { b.Logf("kernel: %s", tensor.KernelDetail()) })
	e, err := engine.NewWithConfig(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

var logKernel sync.Once

func benchEngineStep(b *testing.B, mc bert.Config, ec engine.Config) {
	m, err := bert.New(mc, 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := data.NewCorpus(mc.VocabSize, 1.0, 17)
	if err != nil {
		b.Fatal(err)
	}
	e := benchEngine(b, m, ec)
	const batchSize = 8
	batch := c.MakeBatch(batchSize, data.DefaultBatchConfig(m.Config.SeqLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TrainStep(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
}

// BenchmarkEngineRoundKFAC measures round-mode executor throughput: the
// same 1F1B PipeFisher configuration executed as K-step refresh rounds
// (K in {1, 2, 4}) — one K-FAC refresh spread over each window's bubbles,
// optimizer firing at the round-internal step barriers. The refresh
// interval is fixed at 4 steps for every K (skip-cadence for K = 1, every
// other round for K = 2, every round for K = 4), so the series isolates
// the cost/benefit of the round shape itself. Each K also runs with
// overlapped windows (the -overlap rows): refresh work that spills out of
// its window carries into the next round's bubbles as generation-lagged
// ops instead of serializing before the tail. At K = 4 nothing spills
// (TestOverlapVsSerializedBitIdentity runs this model at K = 4
// with nothing carried), so the K4 overlap row executes the identical
// schedule and should match the serialized row to within measurement
// noise; at K = 2 the tiny model's refresh, priced from its shapes, spills
// and the K2-overlap row carries it. At K = 1 the whole refresh carries
// one round, which redistributes the work without changing its total —
// the wall-clock win appears when device goroutines have real dependency
// stalls to fill (multi-core runs), while the modeled-level win (makespan,
// refresh-filled bubble fraction) is asserted by the schedule and trace
// tests. Every row also reports refresh_tail_ms: per round, each device's
// span from its last forward/backward of the round's last step to that
// step's first tail op — the refresh work that found no bubble, run before
// the tail — the largest over devices, median over rounds. CI distills the
// rows into BENCH_engine.json next to the per-step W series, and
// scripts/bench_compare gates regressions.
func BenchmarkEngineRoundKFAC(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		for _, overlap := range []bool{false, true} {
			name := fmt.Sprintf("K%d", k)
			if overlap {
				name += "-overlap"
			}
			b.Run(name, func(b *testing.B) {
				benchEngineRoundKFAC(b, bert.TinyConfig(), engine.Config{
					Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: k,
					OverlapRounds: overlap,
				})
			})
		}
	}
	// The paired benchmark's base_chimera_k4 pipefisher arm: Chimera, D = 2,
	// N = 4, one refresh per 4-step overlapped round. 2-core host: the two
	// directions run at once (see BenchmarkEngineStep/chimera).
	b.Run("chimera-K4-overlap", func(b *testing.B) {
		benchEngineRoundKFAC(b, chimeraBenchModel, engine.Config{
			Method: "chimera", Stages: 2, MicroBatches: 4, RefreshSteps: 4,
			OverlapRounds: true,
		})
	})
}

// benchEngineRoundKFAC times TrainRound on a K-FAC engine refreshing every
// 4 steps, LAMB firing at the round-internal step barriers.
func benchEngineRoundKFAC(b *testing.B, mc bert.Config, ec engine.Config) {
	m, err := bert.New(mc, 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := data.NewCorpus(mc.VocabSize, 1.0, 17)
	if err != nil {
		b.Fatal(err)
	}
	e := benchEngine(b, m, ec)
	if err := e.EnableKFAC(kfac.DefaultOptions(), 4); err != nil {
		b.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		opt.Step(1e-3)
		return nil
	})
	const batchSize = 8
	k := ec.RefreshSteps
	batches := make([]*data.Batch, k)
	for j := range batches {
		batches[j] = c.MakeBatch(batchSize, data.DefaultBatchConfig(m.Config.SeqLen))
	}
	// One untimed round: the first round at a micro-batch shape re-prices
	// the packing and rebuilds the schedule, a one-time cost the steady
	// state does not pay.
	if _, err := e.TrainRound(batches); err != nil {
		b.Fatal(err)
	}
	tails := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TrainRound(batches); err != nil {
			b.Fatal(err)
		}
		tails = append(tails, refreshTail(e.LastTimeline()))
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize*k)*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
	b.ReportMetric(medianOf(tails), "refresh_tail_ms")
}

// refreshTail returns, in ms, the largest span over devices from a device's
// last forward/backward of the round's last step to its first tail op of
// that step.
func refreshTail(tl *pipeline.Timeline) float64 {
	last := tl.Steps - 1
	var span hardware.Microseconds
	for d := range tl.Events {
		var fbEnd hardware.Microseconds
		tailStart := hardware.Microseconds(-1)
		for _, ev := range tl.Events[d] {
			if ev.Op.Step != last {
				continue
			}
			switch {
			case ev.Op.Kind == pipeline.Forward || ev.Op.Kind == pipeline.Backward:
				fbEnd = max(fbEnd, ev.End)
			case ev.Op.Kind.IsTail() && (tailStart < 0 || ev.Start < tailStart):
				tailStart = ev.Start
			}
		}
		span = max(span, tailStart-fbEnd)
	}
	return float64(span) / 1e3
}

// BenchmarkEngineRoundShape shows where a round's time goes at the paired
// benchmark's wide_1f1b_k8 shape (d 128, d_ff 512, S 32; 1F1B, D 2, N 4,
// K 8, overlapped, K-FAC on, LAMB at the commits), where the refresh does
// not fit the bubbles. Each op is one round. It reports:
//
//   - step_spread: per step index, the median over rounds of the
//     commit-to-commit interval (a step's commit is its longest OptStep
//     event); the largest of them over their median. A refresh that runs
//     on the critical path of some steps shows up as a spread above 1.
//   - refresh_pending_ms: refresh work per round executed while a step's
//     commit was pending — what a device past its OptStep did instead of
//     parking.
//   - model_err/<kind>: per work kind, engine.MeasuredCosts of the round
//     against the same reading of the engine's schedule as simulated (the
//     durations it was packed with), both as ratios to their forward,
//     |measured - modeled| / measured, median over rounds.
//
// 2-core host: the two devices run at once.
func BenchmarkEngineRoundShape(b *testing.B) {
	mc := bert.Config{VocabSize: 512, DModel: 128, DFF: 512, Heads: 4, Blocks: 2, SeqLen: 32}
	m, err := bert.New(mc, 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := data.NewCorpus(mc.VocabSize, 1.0, 17)
	if err != nil {
		b.Fatal(err)
	}
	const k, batchSize, warm = 8, 8, 2
	e := benchEngine(b, m, engine.Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: k, OverlapRounds: true})
	if err := e.EnableKFAC(kfac.DefaultOptions(), k); err != nil {
		b.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		opt.Step(1e-3)
		return nil
	})
	batches := make([]*data.Batch, k)
	for j := range batches {
		batches[j] = c.MakeBatch(batchSize, data.DefaultBatchConfig(mc.SeqLen))
	}
	round := func() *pipeline.Timeline {
		if _, err := e.TrainRound(batches); err != nil {
			b.Fatal(err)
		}
		return e.LastTimeline()
	}
	for i := 0; i < warm; i++ {
		round()
	}
	var tls []*pipeline.Timeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tls = append(tls, round())
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize*k)*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")

	intervals := make([][]float64, k) // [step][round]
	var pending float64
	errs := map[pipeline.WorkKind][]float64{}
	packed, err := pipeline.Run(e.Schedule())
	if err != nil {
		b.Fatal(err)
	}
	modeled := engine.MeasuredCosts(packed, 2*len(e.StageLayers(0)))
	for _, tl := range tls {
		var prev hardware.Microseconds
		for j, end := range commitEnds(tl) {
			intervals[j] = append(intervals[j], float64(end-prev))
			prev = end
			if j+1 < k {
				pending += float64(refreshBefore(tl, j+1, end)) / 1e3
			}
		}
		measured := engine.MeasuredCosts(tl, 2*len(e.StageLayers(0)))
		for _, kind := range pipeline.Kinds() {
			mod, meas := modeled.Cost(kind), measured.Cost(kind)
			if kind == pipeline.Forward || mod <= 0 || meas <= 1 {
				continue
			}
			want := float64(meas) / float64(measured.Forward)
			got := float64(mod) / float64(modeled.Forward)
			errs[kind] = append(errs[kind], math.Abs(got-want)/want)
		}
	}
	perStep := make([]float64, k)
	for j := range intervals {
		perStep[j] = medianOf(intervals[j])
	}
	b.ReportMetric(slices.Max(perStep)/medianOf(perStep), "step_spread")
	b.ReportMetric(pending/float64(len(tls)), "refresh_pending_ms")
	for _, kind := range pipeline.Kinds() {
		if v := errs[kind]; len(v) > 0 {
			b.ReportMetric(medianOf(v), "model_err/"+kind.String())
		}
	}
}

// commitEnds returns when each step of an executed round committed: the end
// of its longest OptStep event.
func commitEnds(tl *pipeline.Timeline) []hardware.Microseconds {
	ends := make([]hardware.Microseconds, tl.Steps)
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if j := ev.Op.Step; ev.Op.Kind == pipeline.OptStep && j >= 0 && j < tl.Steps {
				ends[j] = max(ends[j], ev.End)
			}
		}
	}
	return ends
}

// refreshBefore returns how much of step j's refresh work ran before t.
func refreshBefore(tl *pipeline.Timeline, j int, t hardware.Microseconds) hardware.Microseconds {
	var sum hardware.Microseconds
	for d := range tl.Events {
		for _, ev := range tl.Events[d] {
			if ev.Op.Step == j && ev.Op.Kind.IsRefresh() && ev.Start < t {
				sum += min(ev.End, t) - ev.Start
			}
		}
	}
	return sum
}

func medianOf(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// BenchmarkAllReduce measures the socket transport's chunked chain
// all-reduce against the same payload sent as one un-chunked message, over
// a 2-rank Unix-socket ring on localhost. With cores to run the ranks in
// parallel, the chunked row wins: chunk k's link transfer overlaps the fold
// of chunk k-1, so the pipelined form approaches bandwidth while the
// single-message form serializes hop after hop — the
// hardware.ChainAllReduceCost model, measured (and pinned at >= 1.3x by
// TestChainAllReduceChunkingPipelines). On a single-core runner the overlap
// cannot execute and chunking only pays its ~20us/frame fixed cost, so read
// the pair together with the host's core count. The 1 MiB payload is a
// BERT-Base-scale gradient bucket; bytes/s is reported as MB/s so the row
// lands next to the kernel bandwidth series.
func BenchmarkAllReduce(b *testing.B) {
	const n = 128 * 1024 // 1 MiB of float64s
	for _, bc := range []struct {
		name  string
		chunk int
	}{
		{"chunked", transport.DefaultChunkFloats},
		{"unchunked", n}, // one chunk spans the whole payload
	} {
		b.Run(bc.name, func(b *testing.B) {
			rings, err := transport.NewLocalRing(2, bc.chunk)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, r := range rings {
					r.Close()
				}
			}()
			var wg sync.WaitGroup
			errs := make([]error, len(rings))
			dsts := make([][]float64, len(rings))
			parts := make([][]float64, len(rings))
			for r := range rings {
				dsts[r] = make([]float64, n)
				parts[r] = make([]float64, n)
				for i := range parts[r] {
					parts[r][i] = float64(r*n + i)
				}
			}
			b.SetBytes(8 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wg.Add(len(rings))
				for r := range rings {
					go func(r int) {
						defer wg.Done()
						// One fixed name: same-name collectives are legal when
						// issued in the same order, and the steady state of the
						// engine reuses its names every step just like this.
						_, errs[r] = rings[r].AllReduce("bench/sum", dsts[r], nil, [][]float64{parts[r]})
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						b.Fatalf("rank %d: %v", r, err)
					}
				}
			}
			b.ReportMetric(float64(8*n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MB/s")
		})
	}
}

// BenchmarkEngineTransport runs the identical global batch through the
// executor's three transport configurations: the in-process loopback at
// W in {1, 2} (the BenchmarkEngineStep shapes, unchanged semantics) and a
// 2-process-shaped ring group — two engine instances in one process wired
// over a Unix-socket ring, one replica each, the same global W = 2. The
// loopback rows are the zero-overhead reference the transport seam must not
// tax; the ring row prices the wire (frame encode, socket hop, chunk
// pipelining) for the same bit-identical result, and its kfac row the same
// with a K-FAC refresh every step (the factor exchange, once per stage).
// CI distills them into BENCH_engine.json next to the per-step W series.
func BenchmarkEngineTransport(b *testing.B) {
	// globalW is replicas x group size; every configuration splits the same
	// 8-sequence global batch into 4/globalW micro-batches per replica.
	mkEngine := func(b *testing.B, globalW, replicas int, g transport.Group) (*engine.Engine, *data.Batch) {
		m, err := bert.New(bert.TinyConfig(), 5)
		if err != nil {
			b.Fatal(err)
		}
		c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 17)
		if err != nil {
			b.Fatal(err)
		}
		e := benchEngine(b, m, engine.Config{
			Method: "1f1b", Stages: 2, MicroBatches: 4 / globalW, Replicas: replicas,
			Transport: g,
		})
		batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		return e, batch
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("loopback/W%d", w), func(b *testing.B) {
			e, batch := mkEngine(b, w, w, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TrainStep(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(8*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
		})
	}
	ring := func(b *testing.B, kfacOn bool) {
		rings, err := transport.NewLocalRing(2, transport.DefaultChunkFloats)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			for _, r := range rings {
				r.Close()
			}
		}()
		engines := make([]*engine.Engine, 2)
		batches := make([]*data.Batch, 2)
		var wg sync.WaitGroup
		for r := range engines {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				engines[r], batches[r] = mkEngine(b, 2, 1, rings[r])
			}(r)
		}
		wg.Wait()
		if kfacOn {
			for _, e := range engines {
				if err := e.EnableKFAC(kfac.DefaultOptions(), 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		errs := make([]error, 2)
		step := func() {
			wg.Add(2)
			for r := range engines {
				go func(r int) {
					defer wg.Done()
					_, errs[r] = engines[r].TrainStep(batches[r])
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", r, err)
				}
			}
		}
		// One untimed step: the first step at a micro-batch shape re-prices
		// the packing and rebuilds the schedule, a one-time cost that would
		// otherwise move allocs/op with b.N.
		step()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(8*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
	}
	b.Run("ring/2x1", func(b *testing.B) { ring(b, false) })
	// Every step refreshes: each stage's factor sums cross the ring once.
	b.Run("ring/2x1/kfac", func(b *testing.B) { ring(b, true) })
}

// BenchmarkEngineSlotBytes is the first measured rung of the memory ladder:
// what one activation slot and one device's backward scratch cost, for one
// transformer block at the three block shapes of the paired benchmark
// (tiny_1f1b / tiny_ring2, base_chimera_k4, wide_1f1b_k8: d, dff, tokens per
// micro-batch). slot-B is the block's forward-retained bytes — what each
// extra micro-batch in flight at a stage costs (pipeline.InFlightDepth of
// them per stage) — scratch-B the bytes only a backward writes, held once
// per device whatever it hosts. It also proves the split: a Twin run through
// a full forward + backward on the first block's scratch grows the live
// heap by its forward-retained share and nothing else. ns/op is that
// forward + backward.
func BenchmarkEngineSlotBytes(b *testing.B) {
	for _, c := range []struct {
		name          string
		d, dff, heads int
		seqs, seqLen  int
	}{
		{name: "tiny", d: 32, dff: 64, heads: 4, seqs: 2, seqLen: 16},
		{name: "base", d: 64, dff: 256, heads: 4, seqs: 2, seqLen: 64},
		{name: "wide", d: 128, dff: 512, heads: 4, seqs: 2, seqLen: 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := tensor.NewRNG(7)
			blk := nn.NewTransformerBlock("block", c.d, c.dff, c.heads, rng)
			for _, l := range blk.DenseLayers() {
				l.CaptureKFAC = true
			}
			scratch := new(nn.BlockScratch)
			x := tensor.RandN(rng, c.seqs*c.seqLen, c.d, 1)
			grad := tensor.RandN(rng, c.seqs*c.seqLen, c.d, 1)
			step := func(blk *nn.TransformerBlock) {
				blk.SetShape(c.seqs, c.seqLen)
				blk.Forward(x)
				blk.AttachScratch(scratch)
				blk.Backward(grad)
			}
			step(blk)
			slot, scr := blk.RetainedBytes(), scratch.Bytes()

			heap := func() int64 {
				runtime.GC() // twice: the second cycle empties the workspace and pack-buffer pools
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			}
			before := heap()
			twin := blk.Twin()
			step(twin)
			grew := heap() - before
			if twin.RetainedBytes() != slot || scratch.Bytes() != scr {
				b.Fatalf("twin retains %d B (block %d), scratch grew %d -> %d B", twin.RetainedBytes(), slot, scr, scratch.Bytes())
			}
			// Matrix headers and the attention's per-item views are the slack;
			// a duplicated scratch would double the growth.
			if slack := slot/20 + 16<<10; grew < slot-slack || grew > slot+slack {
				b.Fatalf("a twin's forward + backward grew the heap by %d B; its forward-retained buffers are %d B, the shared scratch %d B", grew, slot, scr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(twin)
			}
			b.ReportMetric(float64(slot), "slot-B")
			b.ReportMetric(float64(scr), "scratch-B")
			runtime.KeepAlive(blk)
		})
	}
}

// BenchmarkEngineRoundFoldBytes is the fold rung of the memory ladder: the
// bytes a K-FAC round's reductions hold in pooled buffers at peak, at the
// paired benchmark's wide_1f1b_k8 round (the BenchmarkEngineRoundShape
// engine: d 128, d_ff 512, S 32; 1F1B, D 2, N 4, K 8, overlapped). partials-B
// is the Gram partials plus the factor sums they fold into — two
// generations of them under overlap — and deltas-B the per-micro-batch
// gradient delta sets, each the high-water mark of Engine.FoldBytes over the
// measured rounds. A fold that held every micro-batch's contribution until
// its reduction would hold four partials per factor and four delta sets per
// stage and step; the running-prefix fold holds a sum per factor and what
// waits for a lower micro-batch. ns/op is one round.
func BenchmarkEngineRoundFoldBytes(b *testing.B) {
	mc := bert.Config{VocabSize: 512, DModel: 128, DFF: 512, Heads: 4, Blocks: 2, SeqLen: 32}
	m, err := bert.New(mc, 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := data.NewCorpus(mc.VocabSize, 1.0, 17)
	if err != nil {
		b.Fatal(err)
	}
	const k, batchSize = 8, 8
	e := benchEngine(b, m, engine.Config{Method: "1f1b", Stages: 2, MicroBatches: 4, RefreshSteps: k, OverlapRounds: true})
	if err := e.EnableKFAC(kfac.DefaultOptions(), k); err != nil {
		b.Fatal(err)
	}
	opt := optim.NewLAMB(m.Params(), 0.01)
	e.SetOptimizer(func(step int) error {
		opt.Step(1e-3)
		return nil
	})
	batches := make([]*data.Batch, k)
	for j := range batches {
		batches[j] = c.MakeBatch(batchSize, data.DefaultBatchConfig(mc.SeqLen))
	}
	// Two untimed rounds: the first re-prices the packing, the second is the
	// first to carry a generation in.
	for i := 0; i < 2; i++ {
		if _, err := e.TrainRound(batches); err != nil {
			b.Fatal(err)
		}
	}
	var partials, deltas int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TrainRound(batches); err != nil {
			b.Fatal(err)
		}
		p, d := e.FoldBytes()
		partials, deltas = max(partials, p), max(deltas, d)
	}
	b.ReportMetric(float64(partials), "partials-B")
	b.ReportMetric(float64(deltas), "deltas-B")
}

// BenchmarkEngineStepKFAC is the same comparison with the PipeFisher
// schedule: K-FAC curvature/inversion in the bubbles (inversion sharded
// round-robin across the replica group at W = 2) plus per-step
// preconditioning.
func BenchmarkEngineStepKFAC(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			m, err := bert.New(bert.TinyConfig(), 5)
			if err != nil {
				b.Fatal(err)
			}
			c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 17)
			if err != nil {
				b.Fatal(err)
			}
			e := benchEngine(b, m, engine.Config{
				Method: "1f1b", Stages: 2, MicroBatches: 4 / w,
				Replicas: w, InversionParallel: w > 1,
			})
			if err := e.EnableKFAC(kfac.DefaultOptions(), 2); err != nil {
				b.Fatal(err)
			}
			const batchSize = 8
			batch := c.MakeBatch(batchSize, data.DefaultBatchConfig(m.Config.SeqLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TrainStep(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
		})
	}
}
