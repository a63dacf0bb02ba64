package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// matrixShape is one cost shape of the generated schedule matrix.
type matrixShape struct {
	name  string
	costs func(t testing.TB, w int, invParallel bool) pipeline.StageCosts
}

// unitCosts builds a synthetic cost shape from per-factor curvature and
// inversion durations, with the collectives the engine's static shape turns
// on under the same conditions.
func unitCosts(fwd, bwd hardware.Microseconds, curv, inv []hardware.Microseconds) func(testing.TB, int, bool) pipeline.StageCosts {
	return func(_ testing.TB, w int, invParallel bool) pipeline.StageCosts {
		c := pipeline.StageCosts{Forward: fwd, Backward: bwd, Precondition: 25, OptStep: 10}
		if w > 1 {
			c.SyncGrad = 60
		}
		if w > 1 || invParallel {
			c.SyncCurvature = 20
		}
		for i := range curv {
			c.CurvatureUnits = append(c.CurvatureUnits, curv[i])
			c.CurvaturePerMicroBatch += curv[i]
			c.InversionUnits = append(c.InversionUnits, inv[i])
		}
		return c
	}
}

// matrixShapes: the engine's static execCosts shape (everything fits a few
// steps' bubbles), a spill-heavy shape (one refresh exceeds several windows),
// uneven per-factor durations, and the paper's profiled BERT-Base stage.
var matrixShapes = []matrixShape{
	{"exec", unitCosts(100, 200,
		[]hardware.Microseconds{6, 6, 6, 6}, []hardware.Microseconds{10, 10, 10, 10})},
	{"spill", unitCosts(100, 200,
		[]hardware.Microseconds{40, 40, 40, 40, 40, 40}, []hardware.Microseconds{150, 150, 150, 150, 150, 150})},
	{"uneven", unitCosts(120, 230,
		[]hardware.Microseconds{3, 9, 5, 14}, []hardware.Microseconds{8, 30, 12, 45})},
	{"bert-base", func(t testing.TB, w int, _ bool) pipeline.StageCosts {
		c, err := pipeline.CostsFor(pipeline.CostConfig{
			Arch: arch.BERTBase, BlocksPerStage: 1, MicroBatch: 32,
			GPU: hardware.P100, DataParallelWidth: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}},
}

// matrixDepths are the D values of the generated matrix; -short drops the
// largest (the bulk of the run time).
func matrixDepths() []int {
	if testing.Short() {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

// forEachMatrixTopology visits methods × N {2,4,8} × W {1,2} ×
// InversionParallel at one pipeline depth and cost shape.
func forEachMatrixTopology(t testing.TB, shape matrixShape, d int, visit func(cfg Config)) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		for _, n := range []int{2, 4, 8} {
			for _, w := range []int{1, 2} {
				for _, invParallel := range []bool{false, true} {
					visit(Config{
						Method: method, Stages: d, MicroBatches: n,
						Costs:             shape.costs(t, w, invParallel),
						DataParallelWidth: w, InversionParallel: invParallel,
					})
				}
			}
		}
	}
}

// hashSchedule folds every field an interpreter of the op list reads — ops,
// dependency edges, steps, generations, per-device orders — into h, leaving
// out the edges skip names.
func hashSchedule(h io.Writer, s *pipeline.Schedule, skip func(op, dep *pipeline.Op) bool) {
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	put(s.Devices, s.Stages, s.MicroBatches, s.Steps, len(s.Ops))
	for _, op := range s.Ops {
		var deps []int
		for _, d := range op.Deps {
			if !skip(op, s.Ops[d]) {
				deps = append(deps, d)
			}
		}
		put(op.ID, int(op.Kind), op.Device, op.Stage, op.Replica, op.Pipeline, op.MicroBatch,
			op.Factor, op.Step, op.Generation, int(op.Duration), len(deps))
		put(deps...)
	}
	for _, order := range s.Order {
		put(len(order))
		put(order...)
	}
}

// TestExecutableDigestMatrix pins schedule.Executable's output op for op over
// a generated matrix: methods × D {2,4,8} × N {2,4,8} × W {1,2} × K {1,2,4} ×
// {serialized, overlap depth 2} × InversionParallel × four cost shapes
// (2 592 schedules), two SHA-256 per cost shape and depth. The first leaves
// out the edges from an inversion to a precondition — the edges that keep an
// inversion running during a pending step commit off an inverse a
// precondition still reads, the only ones a multi-owner stage gained since
// the packers were merged into one pass (484c28d) — and the second covers
// every edge; schedules whose stages each have one owner must have none of
// them. Both were recorded by running this matrix at fc66a26, the commit
// before carry was fixed at one round (whose own digests, depth 3 included,
// reproduced 484c28d's), so a green run proves the serialized and depth-2
// schedules did not change.
func TestExecutableDigestMatrix(t *testing.T) {
	want := map[string]string{
		"exec/D2":      "02c3fed07bb76c8904db17d8c7adfc60e3a2bd94ac78a7869efbe6173d4590a7",
		"exec/D4":      "62749459705452846f91bc20e199ebbe4509851ca0393655686fe787371548aa",
		"exec/D8":      "69871445ea7d1870276b1720271d113176856960a895298a64c04e4a18f01cc8",
		"spill/D2":     "e1dbd2b3b790e88d59ad3923c1fb0d6cb8054999aee5dcd362642aac4dcdeb60",
		"spill/D4":     "8eb34741f540ff29bb1e7b4de8e230b99ddf1ba075fd14c659ab73f80e1cf1d4",
		"spill/D8":     "2cc34d295c2309f1849e4d61c605bd829a51bf8467b084c34cfeeb8e2c998ca0",
		"uneven/D2":    "39fd0c5b91361e8d14fbc7360da898a68315161d8890cdc1a46b717eafc52f4d",
		"uneven/D4":    "b24aa138bc0eba2afb9e6f4c85ed602fac3eb13e2533a5a343f1aef099fe74e4",
		"uneven/D8":    "afe77fbfd94de90a41caebaa9cc84cfba9430885ade11ff5a096908569ac9175",
		"bert-base/D2": "228b5efba4761330fc63e8dc88e8e0d325cf415b8bc3298ed97473cf78b216a1",
		"bert-base/D4": "6613adfe1c2693bb9fdc79bb3c12aea6f956519a3c7d266ab5d058452cddb32d",
		"bert-base/D8": "7c1487a847c85857a302905dd0d0e34ffe5dbe7ec200d561c2c4474d26466d6a",
	}
	wantAll := map[string]string{
		"exec/D2":      "eefe277bd6b482789112780e6c4cb3af2212dc2d4db898034ba57cd24659382a",
		"exec/D4":      "6c0f7155e9c6697a102bf6eb32ab2f8df95a7bf633411f60e4b1872ddd005d99",
		"exec/D8":      "5e58f962a06cae422462b03a84b97f629e9ddb9893f4231bf07c227e34b6ca0d",
		"spill/D2":     "7402d7555ad7c8ac1c5ecd9da6096ba4f44fcb047a40b99cbdc2d34b9101742c",
		"spill/D4":     "f7eff407f693ee0d90331f287051eaab7e9aac51b5709a14e6c736d0813a93b4",
		"spill/D8":     "81777031e89156acda381ea980e980377efcec800aec9b5447f38fd5ac50f6b0",
		"uneven/D2":    "d542453819f950b112bc8ad00639c9a3fcb683413a48829ec43dfa1650a572ec",
		"uneven/D4":    "c6b5ad7e1bc83aedb679a701ca4a4924c873f8636636677376d3836e21e3756b",
		"uneven/D8":    "06755d183e87a46646a5001888ae1a08f29e5eb63b98ee4461c5ed2a06f3d3c4",
		"bert-base/D2": "a12cb5060eaa3849635b26132ec8cf64893724e1a0727b5c88a2e8806642c9df",
		"bert-base/D4": "b413de472ca17756ca4aebbf36132c2cd66c84c9da5d24ad629a55ed2a7e8061",
		"bert-base/D8": "f46ac9a6f03d7007ec00c13c0992ccd9f97461a12c0f7a36437e05cf4dac6138",
	}
	commitEdge := func(op, dep *pipeline.Op) bool {
		return op.Kind == pipeline.Inversion && dep.Kind == pipeline.Precondition
	}
	carried := map[int]int{} // generation -> ops, over the whole matrix
	commitEdges := 0
	for _, shape := range matrixShapes {
		for _, d := range matrixDepths() {
			h, hAll := sha256.New(), sha256.New()
			n := 0
			forEachMatrixTopology(t, shape, d, func(cfg Config) {
				for _, k := range []int{1, 2, 4} {
					for _, depth := range []int{1, 2} {
						cfg.RefreshSteps = k
						cfg.Overlap, cfg.CarryDepth = depth > 1, 0
						if depth > 1 {
							cfg.CarryDepth = depth
						}
						s, err := Executable(cfg)
						if err != nil {
							t.Fatalf("%s %s D%d N%d W%d K%d depth %d invpar=%v: %v", shape.name, cfg.Method,
								d, cfg.MicroBatches, cfg.DataParallelWidth, k, depth, cfg.InversionParallel, err)
						}
						hashSchedule(h, s, commitEdge)
						hashSchedule(hAll, s, func(_, _ *pipeline.Op) bool { return false })
						checkCommitEdges(t, fmt.Sprintf("%s %s D%d N%d W%d K%d", shape.name, cfg.Method, d, cfg.MicroBatches, cfg.DataParallelWidth, k), s)
						n++
						oneOwner := true
						for _, owners := range s.Placement.Owners {
							oneOwner = oneOwner && len(owners) == 1
						}
						for _, op := range s.Ops {
							carried[op.Generation]++
							for _, dep := range op.Deps {
								if commitEdge(op, s.Ops[dep]) {
									commitEdges++
									if oneOwner {
										t.Fatalf("%s %s D%d N%d K%d: inversion %d waits for precondition %d, but every stage has one owner",
											shape.name, cfg.Method, d, cfg.MicroBatches, k, op.ID, dep)
									}
								}
							}
						}
					}
				}
			})
			key := fmt.Sprintf("%s/D%d", shape.name, d)
			if got := hex.EncodeToString(h.Sum(nil)); want[key] != got {
				t.Errorf("%s: digest over %d schedules without inversion->precondition edges = %s, want %s", key, n, got, want[key])
			}
			if got := hex.EncodeToString(hAll.Sum(nil)); wantAll[key] != got {
				t.Errorf("%s: digest over %d schedules = %s, want %s", key, n, got, wantAll[key])
			}
		}
	}
	if carried[1] == 0 {
		t.Errorf("the matrix no longer exercises the carry: ops per generation %v", carried)
	}
	if commitEdges == 0 {
		t.Error("the matrix no longer exercises an inversion waiting for another device's precondition")
	}
}

// TestAdaptiveRoundLengthFitsExecutable: the K AdaptiveRoundLength derives is
// a K the executable's packing agrees with — packing a serialized K-step
// round leaves no refresh item outside the window's bubbles. Skipped where
// the question has no answer: no bubbles at all, or K clamped at maxSteps.
// Two things made this fail before the packers were merged: Assign let an
// inversion start on its own factor's curvature on its own device while the
// executable waits for the layer pair on every owner (K one short on e.g.
// the spill shape at D 4 N 2, bert-base chimera D 8 N 8 W 2), and Assign's
// simulated horizon, sized from the work/bubble ratio alone, could end
// before the refresh did (the heavy shape: chimera D 4 N 2 reported K = 7
// with items still unplaced).
func TestAdaptiveRoundLengthFitsExecutable(t *testing.T) {
	heavy := matrixShape{"heavy", unitCosts(100, 200,
		[]hardware.Microseconds{30, 30, 30, 30, 30, 30, 30, 30}, []hardware.Microseconds{500, 500, 500, 500, 500, 500, 500, 500})}
	for _, shape := range append([]matrixShape{heavy}, matrixShapes...) {
		for _, d := range matrixDepths() {
			forEachMatrixTopology(t, shape, d, func(cfg Config) {
				name := fmt.Sprintf("%s %s D%d N%d W%d invpar=%v", shape.name, cfg.Method,
					d, cfg.MicroBatches, cfg.DataParallelWidth, cfg.InversionParallel)
				k, err := AdaptiveRoundLength(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cfg, err = cfg.normalize()
				if err != nil {
					t.Fatal(err)
				}
				if k >= maxSteps {
					return
				}
				cfg.RefreshSteps = k
				_, tl, items, err := packRound(cfg, k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if tl.TotalBubble() == 0 {
					return
				}
				unplaced := 0
				for _, it := range items {
					if !it.placed {
						unplaced++
					}
				}
				if unplaced > 0 {
					t.Errorf("%s: K=%d leaves %d of %d refresh items outside the bubbles", name, k, unplaced, len(items))
				}
			})
		}
	}
}
