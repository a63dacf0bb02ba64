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
// {serialized, overlap depth 2, depth 3} × InversionParallel × four cost
// shapes (3 888 schedules), two SHA-256 per cost shape and depth. The first
// leaves out the edges from an inversion to a precondition — the edges that
// keep an inversion running during a pending step commit off an inverse a
// precondition still reads, the only ones a multi-owner stage gained since —
// and its expected digests were recorded by running this test at the commit
// before the packers were merged into one pass (484c28d, three separate
// packers), so a green run proves the single pass emits the identical
// schedules. The second covers every edge, recorded when those edges were
// added; schedules whose stages each have one owner must have none of them.
func TestExecutableDigestMatrix(t *testing.T) {
	want := map[string]string{
		"exec/D2":      "f40a4fa8b9efe038637f85dd30881f424b2b49c53abb4885b5ce0988ea38481d",
		"exec/D4":      "225545d4884268c3975929bec9aec91867ee228df55ee9c5c9ba5e20408b7972",
		"exec/D8":      "2263ca1f698bb13beb14559e7aa601eff89179491c10e84675a4071d0157db7a",
		"spill/D2":     "865f63a1b83ed89b78281ba3f57ad12af725032574a50c3988c1843ae5c41304",
		"spill/D4":     "a0cc5cc6db9df210a4e2271241b94b459eb33cfc0c5749df8e93f6e9b020be82",
		"spill/D8":     "bd8292ff092e67eecfb390849d52a0480c5074a6366092b1f238fd2d18276b61",
		"uneven/D2":    "b67381538570d798931a3da253a24beec3ed7a01f9634b8a6728274a0c33129f",
		"uneven/D4":    "419ef6ac01b02b5d8f9775e21e0d401b9af740129a2239445cbbee27ca82ec80",
		"uneven/D8":    "29fd30c071d562d6d9ef32e3551281fc33686256b495d0dee6f2efccbc8b1f12",
		"bert-base/D2": "5014044ce49d076857d4f13cf83a74d7f4c95746fa9ad3c5b6ce2e06072f7dc0",
		"bert-base/D4": "d32c5be156e0457ea5f4022c36a96d1d707b92106e8d8a7f2b7bca7d5a0a4ba8",
		"bert-base/D8": "2d3214c03aea8489e98a6892159a91c1e71bbd939d2b63aedc9357041f9fd2d9",
	}
	wantAll := map[string]string{
		"exec/D2":      "2815fc3cf9766844925e97b34a15be181cda26a4236a6e195e146a5ee92d4ded",
		"exec/D4":      "78dd63715894f7606f1cfe023006afdbae10d977367ad2540de1e8329150b32c",
		"exec/D8":      "72693c8d29c37c4feeb167a27ab0f4dfa508c0d9eaa61bd4598344ce7f5b830b",
		"spill/D2":     "20d61882d901ef00324127088b366215c6c775c099d1201686277e129f7256ed",
		"spill/D4":     "e440c536a1b02d09072c388114017f7c59c65f96a2ced4872db2444b5d93009c",
		"spill/D8":     "6790fdb86c041808791972069d6016b7f22c0607fbd462cbd94c25f3e827a7f3",
		"uneven/D2":    "fc6c0a469e8de15203568bba6871cbaae5d45460f31a687471ecaab5bb4a100a",
		"uneven/D4":    "93afe5f4e7caafa8ae37a00b97495d429bd8c4682b94d4a1e39a943f23b72f31",
		"uneven/D8":    "a2f4c46f2d486d3514e1d2d78be2d09ae57a7abd54535038716f8004ee8284ce",
		"bert-base/D2": "0a636ebc17a3ef768349da1a0a38d6a18355688231b23cb63bb9fc71e4e98cc2",
		"bert-base/D4": "83b4eab8378814cd8b347051c3afb3d83a8b0fc7411508ce8b8bb1ce3f0accec",
		"bert-base/D8": "1183bd6f365b5c71cd065410fc4b5ccad0c49b456f958e465527e3dc925fde87",
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
					for _, depth := range []int{1, 2, 3} {
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
	if carried[1] == 0 || carried[2] == 0 {
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
