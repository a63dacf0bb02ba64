package pipeline

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
)

// chimeraLabel names a forward or backward op by micro-batch and direction,
// as in Chimera's figures: F0d is the down pipeline's micro-batch 0, B2u the
// up pipeline's micro-batch 2.
func chimeraLabel(op *Op) string {
	dir := "d"
	if op.Pipeline == 1 {
		dir = "u"
	}
	return fmt.Sprintf("%c%d%s", op.Kind.row().letter, op.MicroBatch, dir)
}

// stepLabels lists device dev's order within one step, tail ops by kind.
func stepLabels(s *Schedule, dev, step int) string {
	var out []string
	for _, id := range s.Order[dev] {
		switch op := s.Ops[id]; {
		case op.Step != step:
		case op.Kind == Forward || op.Kind == Backward:
			out = append(out, chimeraLabel(op))
		default:
			out = append(out, op.Kind.String())
		}
	}
	return strings.Join(out, " ")
}

// TestChimeraOrderGolden: at D = N = 4 the device orders are the ones an
// exhaustive search over every per-device interleaving found optimal, and
// the step takes Table 1's D·T_f + (2D−2)·T_b = 1600 µs at T_f = 100,
// T_b = 200.
func TestChimeraOrderGolden(t *testing.T) {
	want := []string{
		"F0d F1d F2u B2u F3u B3u B0d B1d",
		"F0d F2u F1d F3u B2u B0d B3u B1d",
		"F2u F0d F3u F1d B0d B2u B1d B3u",
		"F2u F3u F0d B0d F1d B1d B2u B3u",
	}
	s, err := BuildChimera(BuildConfig{Stages: 4, MicroBatches: 4, Costs: StageCosts{Forward: 100, Backward: 200}})
	if err != nil {
		t.Fatal(err)
	}
	for dev := range want {
		if got := stepLabels(s, dev, 0); got != want[dev] {
			t.Errorf("device %d: order %q, want %q", dev, got, want[dev])
		}
	}
	tl, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 1600 {
		t.Errorf("makespan %d µs, want 1600", tl.Makespan)
	}
}

// TestChimeraOrderIsWidened1F1B holds every Chimera device order, over
// generated (D, N, W, Steps), to the rule it is built by: within a step,
// each direction's stage runs 1F1B over D/2 slots, slot j carrying the
// direction's micro-batches in consecutive runs, earlier slots the larger
// share; the step's tail follows its last backward; steps do not interleave.
// So stage s holds the micro-batches of min(D/2, D−s) slots in flight.
func TestChimeraOrderIsWidened1F1B(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8, 12, 16} {
		for n := 2; n <= 3*d+2; n += 2 {
			for _, w := range []int{1, 2} {
				for _, steps := range []int{1, 2} {
					for _, opt := range []bool{false, true} {
						name := fmt.Sprintf("D%d/N%d/W%d/K%d/opt=%v", d, n, w, steps, opt)
						s, err := BuildChimera(BuildConfig{
							Stages: d, MicroBatches: n, Steps: steps, DataParallelWidth: w,
							Costs:                StageCosts{Forward: 100, Backward: 200, OptStep: 10, SyncGrad: 60},
							IncludeOptimizerWork: opt,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkWidened1F1B(t, name, s, d, n/2, steps)
					}
				}
			}
		}
	}
}

func checkWidened1F1B(t *testing.T, name string, s *Schedule, d, half, steps int) {
	t.Helper()
	slots := d / 2
	// runs[j] is slot j's micro-batches.
	runs := make([][]int, slots)
	for m, j := 0, 0; j < slots; j++ {
		size := half / slots
		if j < half%slots {
			size++
		}
		for ; size > 0; size-- {
			runs[j] = append(runs[j], m)
			m++
		}
	}
	// In flight: the micro-batches of the first min(D/2, D-s) slots.
	depth := s.InFlightDepth()
	for stage, owners := range s.Placement.Owners {
		want := 0
		for _, run := range runs[:min(slots, d-stage)] {
			want += len(run)
		}
		for i := range owners {
			if depth[stage][i] != want {
				t.Fatalf("%s: stage %d owner %d holds %d micro-batches in flight, want %d", name, stage, i, depth[stage][i], want)
			}
		}
	}
	for dev, order := range s.Order {
		local := dev % d
		step, tailSeen := 0, false
		got := map[[2]int][]phase{} // (step, pipe) -> phases in device order
		for _, id := range order {
			op := s.Ops[id]
			if op.Step != step {
				if op.Step != step+1 {
					t.Fatalf("%s: device %d runs step %d after step %d", name, dev, op.Step, step)
				}
				step, tailSeen = op.Step, false
			}
			switch {
			case op.Kind == Forward || op.Kind == Backward:
				if tailSeen {
					t.Fatalf("%s: device %d runs %s after its step %d tail", name, dev, op.Label(), step)
				}
				k := [2]int{op.Step, op.Pipeline}
				got[k] = append(got[k], phase{op.Kind, op.MicroBatch - op.Pipeline*half})
			default:
				tailSeen = true
			}
		}
		for k := 0; k < steps; k++ {
			for pipe := 0; pipe < 2; pipe++ {
				stage := local
				if pipe == 1 {
					stage = d - 1 - local
				}
				var want []phase
				for _, ph := range oneFOneBOrder(stage, d, slots) {
					for _, m := range runs[ph.micro] {
						want = append(want, phase{ph.kind, m})
					}
				}
				if !slices.Equal(got[[2]int{k, pipe}], want) {
					t.Fatalf("%s: device %d step %d pipeline %d runs %v, want 1F1B widened %v",
						name, dev, k, pipe, got[[2]int{k, pipe}], want)
				}
			}
		}
	}
}

// TestChimeraD2Orders: at D = 2 every device runs its first stage's
// forwards, its second stage's forwards, then the second's backwards and
// the first's, each in ascending micro-batch order, then the step's tail —
// down before up on device 0, up before down on device 1. These are the
// orders the critical-path list scheduler laid out for every executed
// (optimizer-work) schedule at D = 2 under each cost shape below, so the
// phase order changed no D = 2 op list the engine runs.
func TestChimeraD2Orders(t *testing.T) {
	shapes := []StageCosts{
		{Forward: 100, Backward: 200, Precondition: 25, OptStep: 10, SyncGrad: 60},
		{Forward: 120, Backward: 230, Precondition: 25, OptStep: 10, SyncGrad: 60},
		{Forward: 100, Backward: 100, Precondition: 5, OptStep: 1, SyncGrad: 6},
		{Forward: 100, Backward: 300, Precondition: 250, OptStep: 100, SyncGrad: 600},
	}
	run := func(kind string, pipe, half int) []string {
		var out []string
		for m := 0; m < half; m++ {
			out = append(out, fmt.Sprintf("%s%d%s", kind, pipe*half+m, []string{"d", "u"}[pipe]))
		}
		return out
	}
	for n := 2; n <= 16; n += 2 {
		for _, w := range []int{1, 2} {
			for _, steps := range []int{1, 2} {
				for _, opt := range []bool{false, true} {
					if steps > 1 && !opt {
						continue // the list scheduler let such steps interleave, by cost shape
					}
					for i, costs := range shapes {
						s, err := BuildChimera(BuildConfig{
							Stages: 2, MicroBatches: n, Steps: steps, DataParallelWidth: w, Costs: costs,
							IncludeOptimizerWork: opt, IncludePrecondition: opt,
						})
						if err != nil {
							t.Fatal(err)
						}
						for dev := 0; dev < s.Devices; dev++ {
							first := dev % 2 // device 0 leads with the down pipeline, device 1 with the up
							want := slices.Concat(run("F", first, n/2), run("F", 1-first, n/2),
								run("B", 1-first, n/2), run("B", first, n/2))
							if opt {
								want = append(want, "sync-grad", "precondition", "opt-step")
							}
							for k := 0; k < steps; k++ {
								if got := stepLabels(s, dev, k); got != strings.Join(want, " ") {
									t.Errorf("N%d W%d K%d opt=%v shape %d: device %d step %d runs %q, want %q",
										n, w, steps, opt, i, dev, k, got, strings.Join(want, " "))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTable1AgainstSimulator holds the simulator to Table 1's critical path
// T_pipe = C_f·T_f + C_b·T_b: with flush, C_f = C_b = N + D − 1 for GPipe
// and 1F1B; C_f = D, C_b = 2D − 2 for Chimera at N = D, and each
// micro-batch beyond D adds one forward and one backward. The cells are
// those of Figures 5, 9 and 10 (BERT-Base and BERT-Large, B_micro
// {8, 16, 32}, D {4, 8, 16}, N_micro = D, with and without recomputation,
// on a P100), of Figure 6 (BERT-Base, D {4, 8, 16, 32}, N_micro
// {D, 2D, 3D}, B_micro 1–64, every GPU), and synthetic ones at
// T_b/T_f {1, 1.5, 2, 2.5, 3}, D {2, …, 32}. GPipe and 1F1B take T_pipe
// exactly, and Chimera at N = D; Chimera at N > D takes at most the
// extension (its interleaved directions overlap more of the extra
// micro-batches than the extension counts).
func TestTable1AgainstSimulator(t *testing.T) {
	type cell struct {
		name  string
		d, n  int
		costs StageCosts
	}
	var cells []cell
	paper := func(a arch.Transformer, g hardware.GPU, d, n, bm int, rec bool) {
		costs, err := CostsFor(CostConfig{Arch: a, BlocksPerStage: 1, MicroBatch: bm, GPU: g, Recompute: rec})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{fmt.Sprintf("%s D=%d N=%d B=%d R=%v on %s", a.Name, d, n, bm, rec, g.Name), d, n, costs})
	}
	for _, a := range []arch.Transformer{arch.BERTBase, arch.BERTLarge} {
		for _, bm := range []int{8, 16, 32} {
			for _, d := range []int{4, 8, 16} {
				for _, rec := range []bool{false, true} {
					paper(a, hardware.P100, d, d, bm, rec)
				}
			}
		}
	}
	for _, g := range hardware.All() {
		for _, d := range []int{4, 8, 16, 32} {
			for _, f := range []int{1, 2, 3} {
				for _, bm := range []int{1, 2, 4, 8, 16, 32, 64} {
					paper(arch.BERTBase, g, d, f*d, bm, false)
				}
			}
		}
	}
	for _, ratio := range []float64{1, 1.5, 2, 2.5, 3} {
		for _, d := range []int{2, 4, 8, 16, 32} {
			for _, f := range []int{1, 2, 3} {
				costs := StageCosts{Forward: 100, Backward: hardware.Microseconds(100 * ratio)}
				cells = append(cells, cell{fmt.Sprintf("T_b/T_f=%g D=%d N=%d", ratio, d, f*d), d, f * d, costs})
			}
		}
	}
	lo, hi := math.Inf(1), 0.0
	for _, c := range cells {
		d, n := hardware.Microseconds(c.d), hardware.Microseconds(c.n)
		tf, tb := c.costs.Forward, c.costs.Backward
		for _, method := range Methods() {
			s, err := Build(method, BuildConfig{Stages: c.d, MicroBatches: c.n, Costs: c.costs})
			if err != nil {
				t.Fatal(err)
			}
			tl, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case method != "chimera":
				if want := (n + d - 1) * (tf + tb); tl.Makespan != want {
					t.Errorf("%s %s: simulated makespan %d µs, Table 1 T_pipe %d µs", method, c.name, tl.Makespan, want)
				}
			case c.n == c.d:
				if want := d*tf + (2*d-2)*tb; tl.Makespan != want {
					t.Errorf("chimera %s: simulated makespan %d µs, Table 1 T_pipe %d µs", c.name, tl.Makespan, want)
				}
			default:
				ext := n*tf + (n+d-2)*tb
				if tl.Makespan > ext {
					t.Errorf("chimera %s: simulated makespan %d µs above Table 1's extension %d µs", c.name, tl.Makespan, ext)
				}
				r := float64(tl.Makespan) / float64(ext)
				lo, hi = min(lo, r), max(hi, r)
			}
		}
	}
	t.Logf("%d cells: gpipe and 1f1b, and chimera at N = D, simulate to Table 1's T_pipe exactly", len(cells))
	t.Logf("chimera at N > D: simulated makespan / Table 1's extension in [%.3f, %.3f]", lo, hi)
}
