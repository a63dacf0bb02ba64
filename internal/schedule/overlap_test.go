package schedule

import (
	"fmt"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// spillConfig is a configuration whose refresh work cannot fit one window's
// bubbles (the costs of TestExecutableRoundDistributesWork, which overflow
// even a K = 2 window), so the overlap carry set is non-empty.
func spillConfig(method string, k int) Config {
	cfg := execTestConfig(method)
	// Scale the refresh work with the window length so it overflows the
	// window's bubbles at every K under test.
	for i := range cfg.Costs.CurvatureUnits {
		cfg.Costs.CurvatureUnits[i] = hardware.Microseconds(60 * k)
		cfg.Costs.InversionUnits[i] = hardware.Microseconds(80 * k)
	}
	cfg.Costs.CurvaturePerMicroBatch = hardware.Microseconds(4 * 60 * k)
	cfg.RefreshSteps = k
	return cfg
}

// kfacOpCounts tallies refresh ops by (kind, generation).
func kfacOpCounts(s *pipeline.Schedule) (curv, inv, carriedCurv, carriedInv int) {
	for _, op := range s.Ops {
		switch op.Kind {
		case pipeline.Curvature:
			curv++
			if op.Generation == 1 {
				carriedCurv++
			}
		case pipeline.Inversion:
			inv++
			if op.Generation == 1 {
				carriedInv++
			}
		}
	}
	return
}

// Overlap must be invisible when the window holds the whole refresh: with
// bubbles large enough for every item, the overlapped schedule carries
// nothing and is op-for-op identical to the serialized one.
func TestOverlapNoSpillIdenticalToSerialized(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		t.Run(method, func(t *testing.T) {
			cfg := execTestConfig(method)
			cfg.RefreshSteps = 2
			serial, err := Executable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Overlap = true
			over, err := Executable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(over.Ops) != len(serial.Ops) {
				t.Fatalf("overlap emitted %d ops, serialized %d", len(over.Ops), len(serial.Ops))
			}
			for i := range serial.Ops {
				a, b := serial.Ops[i], over.Ops[i]
				if a.Kind != b.Kind || a.Device != b.Device || a.Stage != b.Stage ||
					a.MicroBatch != b.MicroBatch || a.Factor != b.Factor || a.Step != b.Step ||
					b.Generation != 0 {
					t.Fatalf("op %d differs: serialized %+v, overlap %+v", i, a, b)
				}
			}
			for d := range serial.Order {
				if len(serial.Order[d]) != len(over.Order[d]) {
					t.Fatalf("device %d order length differs", d)
				}
				for i := range serial.Order[d] {
					if serial.Order[d][i] != over.Order[d][i] {
						t.Fatalf("device %d order differs at %d: %d vs %d",
							d, i, serial.Order[d][i], over.Order[d][i])
					}
				}
			}
		})
	}
}

// With spilling work, the overlapped schedule must carry part of the
// refresh as generation-1 ops, stay runnable, keep the op population of
// exactly one refresh, and honor the generation contract: carried
// curvature has no in-window forward/backward dependency, own-generation
// inversions of a layer depend on the layer's carried inversions (fold
// order), and preconditions cover both generations' inversions up to their
// step.
func TestOverlapCarriesSpillAndStaysRunnable(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", method, k), func(t *testing.T) {
				cfg := spillConfig(method, k)
				serial, err := Executable(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Overlap = true
				over, err := Executable(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tl, err := pipeline.Run(over)
				if err != nil {
					t.Fatalf("overlapped schedule stalls: %v", err)
				}
				sCurv, sInv, _, _ := kfacOpCounts(serial)
				oCurv, oInv, carriedCurv, carriedInv := kfacOpCounts(over)
				if oCurv != sCurv || oInv != sInv {
					t.Fatalf("overlap changed the refresh op population: %d/%d curv, %d/%d inv",
						oCurv, sCurv, oInv, sInv)
				}
				if carriedCurv+carriedInv == 0 {
					t.Fatal("spilling configuration carried nothing: overlap had no effect")
				}
				for _, op := range over.Ops {
					switch {
					case op.Kind == pipeline.Curvature && op.Generation == 1:
						for _, dep := range op.Deps {
							d := over.Ops[dep]
							if d.Kind == pipeline.Forward || d.Kind == pipeline.Backward {
								t.Fatalf("carried curvature op %d depends on in-window %v", op.ID, d.Kind)
							}
						}
					case op.Kind == pipeline.Inversion && op.Generation == 0:
						// Must depend on every carried inversion of its layer pair.
						deps := map[int]bool{}
						for _, dep := range op.Deps {
							deps[dep] = true
						}
						for _, other := range over.Ops {
							if other.Kind == pipeline.Inversion && other.Generation == 1 &&
								other.Stage == op.Stage &&
								(other.Factor == op.Factor || other.Factor == pairFactor(op.Factor)) &&
								!deps[other.ID] {
								t.Fatalf("own-generation inversion %d misses fold-order dep on carried inversion %d",
									op.ID, other.ID)
							}
						}
					case op.Kind == pipeline.Precondition:
						deps := map[int]bool{}
						for _, dep := range op.Deps {
							deps[dep] = true
						}
						for _, other := range over.Ops {
							if other.Kind == pipeline.Inversion && other.Stage == op.Stage &&
								other.Step <= op.Step && !deps[other.ID] {
								t.Fatalf("step-%d precondition of stage %d misses gen-%d inversion %d of step %d",
									op.Step, op.Stage, other.Generation, other.ID, other.Step)
							}
						}
					}
				}
				// The throughput claim at the modeled level: the overlapped
				// steady-state window never takes longer than the serialized
				// one (the spill no longer extends the pre-tail block).
				stl, err := pipeline.Run(serial)
				if err != nil {
					t.Fatal(err)
				}
				if tl.Makespan > stl.Makespan {
					t.Fatalf("overlapped window makespan %d exceeds serialized %d", tl.Makespan, stl.Makespan)
				}
			})
		}
	}
}

// AdaptiveRoundLength returns Assign's measured refresh window: at least 1,
// larger for configurations whose refresh work overflows one step's
// bubbles, and consistent with Assign's own report.
func TestAdaptiveRoundLength(t *testing.T) {
	small := execTestConfig("gpipe")
	k, err := AdaptiveRoundLength(small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Assign(small)
	if err != nil {
		t.Fatal(err)
	}
	if k != res.RefreshSteps {
		t.Fatalf("adaptive K %d != Assign's measured refresh steps %d", k, res.RefreshSteps)
	}
	big := spillConfig("gpipe", 4)
	kBig, err := AdaptiveRoundLength(big)
	if err != nil {
		t.Fatal(err)
	}
	if kBig < 2 {
		t.Fatalf("heavy refresh work must need a multi-step window, got K=%d", kBig)
	}
	if kBig < k {
		t.Fatalf("adaptive K not monotone in refresh work: heavy %d < light %d", kBig, k)
	}
}

// A zero CarryDepth must resolve to the depth-2 overlap: byte-level schedule
// equality between the default and an explicit CarryDepth 2, so callers
// that spell the depth out (the paired benchmark does) run the same rounds.
func TestDeepCarryDefaultDepthTwoIdentical(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", method, k), func(t *testing.T) {
				cfg := spillConfig(method, k)
				cfg.Overlap = true
				def, err := Executable(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.CarryDepth = 2
				expl, err := Executable(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(def.Ops) != len(expl.Ops) {
					t.Fatalf("op counts differ: default %d, explicit 2 %d", len(def.Ops), len(expl.Ops))
				}
				for i := range def.Ops {
					a, b := def.Ops[i], expl.Ops[i]
					if a.Kind != b.Kind || a.Device != b.Device || a.Stage != b.Stage ||
						a.MicroBatch != b.MicroBatch || a.Factor != b.Factor ||
						a.Step != b.Step || a.Generation != b.Generation {
						t.Fatalf("op %d differs: default %+v, explicit %+v", i, a, b)
					}
				}
				for d := range def.Order {
					for i := range def.Order[d] {
						if def.Order[d][i] != expl.Order[d][i] {
							t.Fatalf("device %d order differs at %d", d, i)
						}
					}
				}
			})
		}
	}
}

// CarryDepth validation: carried work lags one round, so only 0 and 2 are
// accepted — negative, 1 and deeper carries are rejected, as is any carry
// depth without Overlap.
func TestDeepCarryConfigValidation(t *testing.T) {
	base := execTestConfig("1f1b")
	for _, tc := range []struct {
		depth   int
		overlap bool
	}{
		{depth: -1, overlap: true},
		{depth: 1, overlap: true},
		{depth: 3, overlap: false},
		{depth: 3, overlap: true},
	} {
		cfg := base
		cfg.Overlap = tc.overlap
		cfg.CarryDepth = tc.depth
		if _, err := Executable(cfg); err == nil {
			t.Fatalf("CarryDepth %d overlap=%v accepted", tc.depth, tc.overlap)
		}
	}
}
