// Command figures regenerates every figure artifact of the reproduction in
// one run: timeline CSVs and SVGs for the profile figures (1, 3, 4) and
// CSV series for the performance-model figures (5, 6, 9-16), written to an
// output directory.
//
// Usage:
//
//	figures -out ./out
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/schedule"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	out := flag.String("out", "figures-out", "output directory")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	profileFigures(*out)
	modelFigures(*out)
	fmt.Printf("all figure artifacts written to %s\n", *out)
}

// profileFigures regenerates the timeline-based figures.
func profileFigures(dir string) {
	cases := []struct {
		name   string
		a      arch.Transformer
		method string
		stages int
		blocks int
		nmicro int
		dp     int
		invPar bool
	}{
		{"figure1_gpipe_schematic", arch.BERTBase, "gpipe", 4, 1, 4, 1, false},
		{"figure3_gpipe_bertbase", arch.BERTBase, "gpipe", 4, 3, 4, 1, false},
		{"figure3_1f1b_bertbase", arch.BERTBase, "1f1b", 4, 3, 4, 1, false},
		{"figure3_gpipe_data_inv_parallel", arch.BERTBase, "gpipe", 4, 3, 4, 2, true},
		{"figure4_chimera_bertlarge", arch.BERTLarge, "chimera", 8, 3, 8, 2, true},
	}
	for _, c := range cases {
		// dp is the width of a stage's device group: Chimera's two
		// pipelines already pair each stage's devices.
		costs, err := pipeline.CostsFor(pipeline.CostConfig{
			Arch: c.a, BlocksPerStage: c.blocks, MicroBatch: 32,
			GPU: hardware.P100, DataParallelWidth: c.dp,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := schedule.Assign(schedule.Config{
			Method: c.method, Stages: c.stages, MicroBatches: c.nmicro, Costs: costs,
			DataParallelWidth: c.dp / pipeline.Pipelines(c.method), InversionParallel: c.invPar,
		})
		if err != nil {
			log.Fatal(err)
		}
		writeTimeline(dir, c.name+"_vanilla", res.VanillaTimeline)
		writeTimeline(dir, c.name+"_pipefisher", res.Timeline)
		fmt.Printf("%-36s util %.1f%% -> %.1f%%, refresh %d step(s)\n",
			c.name, 100*res.VanillaUtilization, 100*res.Utilization, res.RefreshSteps)
	}
}

func writeTimeline(dir, name string, tl *pipeline.Timeline) {
	writeFile(filepath.Join(dir, name+".csv"), func(w io.Writer) error { return trace.WriteCSV(w, tl) })
	writeFile(filepath.Join(dir, name+".svg"), func(w io.Writer) error { return trace.RenderSVG(w, tl, 1200) })
}

// writeFile creates path and fills it through write, buffered, and exits on
// an error of the write, the flush or the close: a truncated file is never
// reported as written. The buffer keeps the first error of a formatted
// write, so write may ignore fmt.Fprint's results.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err := errors.Join(err, f.Close()); err != nil {
		log.Fatal(err)
	}
}

// modelFigures regenerates the performance-model CSV series.
func modelFigures(dir string) {
	sweeps := []struct {
		name string
		a    arch.Transformer
	}{
		{"figure6_11_bertbase", arch.BERTBase},
		{"figure12_bertlarge", arch.BERTLarge},
		{"figure13_t5base", arch.T5Base},
		{"figure14_t5large", arch.T5Large},
		{"figure15_opt125m", arch.OPT125M},
		{"figure16_opt350m", arch.OPT350M},
	}
	for _, s := range sweeps {
		bmicros := []int{1, 2, 4, 8, 16, 32, 64}
		if s.a.SeqLen >= 2048 {
			bmicros = []int{1, 2, 4, 8}
		}
		pts, err := perfmodel.Sweep(s.a, "chimera", []int{4, 8, 16, 32}, bmicros, []int{1, 2, 3}, hardware.All())
		if err != nil {
			log.Fatal(err)
		}
		writeFile(filepath.Join(dir, s.name+".csv"), func(f io.Writer) error {
			fmt.Fprintln(f, "gpu,d,nmicro,bmicro,throughput_seqs_per_s,ratio,speedup_vs_skip")
			for _, p := range pts {
				fmt.Fprintf(f, "%s,%d,%d,%d,%.1f,%.2f,%.3f\n",
					p.GPU, p.D, p.NMicro, p.BMicro,
					p.Model.ThroughputPipeFisher, p.Model.Ratio, p.Model.SpeedupVsSkip())
			}
			return nil
		})
		fmt.Printf("%-36s %d sweep points\n", s.name, len(pts))
	}
	// Figure 5/9/10 grids: per (BMicro, D) the time terms, the four
	// throughputs, the ratio and the memory split, with and without
	// activation recomputation; N_micro = D on a P100.
	for _, g := range []struct {
		name   string
		a      arch.Transformer
		method string
	}{
		{"figure5_9_chimera_bertbase_grid", arch.BERTBase, "chimera"},
		{"figure9_gpipe_bertbase_grid", arch.BERTBase, "gpipe"},
		{"figure10_chimera_bertlarge_grid", arch.BERTLarge, "chimera"},
		{"figure10_gpipe_bertlarge_grid", arch.BERTLarge, "gpipe"},
	} {
		writeFile(filepath.Join(dir, g.name+".csv"), func(f io.Writer) error {
			fmt.Fprintln(f, "bmicro,d,recompute,tf_ms,tb_ms,tprec_ms,tbubble_ms,tcurv_ms,tinv_ms,"+
				"throughput_vanilla,throughput_pipefisher,throughput_kfac_skip,throughput_kfac,ratio,"+
				"mem_act_gb,mem_peak_err_gb,mem_save_err_gb,mem_curv_inv_gb,mem_param_grad_gb,mem_total_gb")
			for _, bm := range []int{8, 16, 32} {
				for _, d := range []int{4, 8, 16} {
					for _, rec := range []bool{false, true} {
						m, err := perfmodel.Evaluate(perfmodel.Input{
							Arch: g.a, GPU: hardware.P100, Method: g.method,
							D: d, NMicro: d, BMicro: bm, Recompute: rec,
						})
						if err != nil {
							return err
						}
						mem := m.Memory
						fmt.Fprintf(f, "%d,%d,%t,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
							bm, d, rec,
							ms(m.Tf), ms(m.Tb), ms(m.Tprec), ms(m.TBubble), ms(m.Tcurv), ms(m.Tinv),
							m.ThroughputVanilla, m.ThroughputPipeFisher, m.ThroughputKFACSkip, m.ThroughputKFACNaive,
							m.Ratio,
							gb(mem.Act), gb(mem.PeakErr), gb(mem.SaveErr), gb(mem.CurvInv), gb(mem.ParamGrad), gb(mem.Total()))
					}
				}
			}
			return nil
		})
		fmt.Printf("%-36s grid written\n", g.name)
	}
}

func ms(us hardware.Microseconds) float64 { return float64(us) / 1000 }
func gb(bytes float64) float64            { return bytes / 1e9 }
