package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
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
// {serialized, overlap depth 2} × InversionParallel × five cost shapes — the
// four matrixShapes and chainCosts, whose factors 1 and 2 invert as 7-step
// chains — (3 240 schedules), three SHA-256 per cost shape and depth. The first leaves
// out the edges from an inversion to a precondition — the edges that keep an
// inversion running during a pending step commit off an inverse a
// precondition still reads, the only ones a multi-owner stage gained since
// the packers were merged into one pass (484c28d) — and the second covers
// every edge; schedules whose stages each have one owner must have none of
// them. Both were recorded by running this matrix at fc66a26, the commit
// before carry was fixed at one round (whose own digests, depth 3 included,
// reproduced 484c28d's), and re-recorded where unplaced refresh work moved
// to dependency-rank order (spillRank): exec/D2, spill/D2/D4/D8, uneven/D2
// and bert-base/D2/D4/D8, the groups with work that found no bubble. The
// third hashes ops and every edge with the device orders left out; it was
// recorded at dd6427f, the commit before the rank order, so a green run
// proves the rank order moved ops within device orders and nothing else.
// Every D4 and D8 group was re-recorded when Chimera's device orders became
// a phase order (1F1B per direction over D/2 slots, merged per device)
// instead of a list schedule: the builder's ops and edges are unchanged,
// its orders and so the refresh work packed into them moved; the D2 groups, whose Chimera orders the phase
// order reproduces, and a digest of the GPipe and 1F1B schedules alone
// (c470f861…) are the same before and after. The chain rows were recorded
// at b6fdeff, before the packer's rules moved onto the work items' inputs:
// nothing else pinned which window step and generation a chain's steps
// take. Every schedule's unplaced
// refresh ops must sit in rank order (checkSpillRank).
func TestExecutableDigestMatrix(t *testing.T) {
	want := map[string]string{
		"exec/D2":      "8a42024e6712a87e7af3b924cefcc18a2415646e26e7eb81b859803be0f9c532",
		"exec/D4":      "ff82c3d320c020e806ab8323a967f21ceb6dc613fb2e14b30e20455d9ffb7d3b",
		"exec/D8":      "07113dde844b81abd895415554d8006bedbe712ec2c63005e926459608b63836",
		"spill/D2":     "1f81982d02c8881acc144c3aafd7d084c6ab41086c89c7a58e6d311c0002ba1a",
		"spill/D4":     "af32fdf29451bf4a19d5bdc7c2d583364a93078e3821f0643fe4b283e37de6aa",
		"spill/D8":     "d72f4b14935e9f289e17e3f0a8bd2ad246101571da2b4fa01cc12c0214bdf314",
		"uneven/D2":    "af5eb59b0a1f4600983bb6be390ebe6ace4c73b53ab266572dabc7574019cd6c",
		"uneven/D4":    "493c5870234824e5dd67d7ae1aa3c7300d662f076a12f2cbdb899fddac075295",
		"uneven/D8":    "53dd79503bd8f620f9241d1e57323b355a44ea5d255ec53e1d6c899b32049b3e",
		"bert-base/D2": "911bdfa09884a816e1a553184afc2a340146010b902a1987d27b0110a2b21ccc",
		"bert-base/D4": "a55ea85affb79c079710e7db3a34dca0dede6b0fb5a3ae9496680e48eb05e2da",
		"bert-base/D8": "d873b6798be25d9fa9667ec8e8e0c4e38b7effb5d2015ce726118ac1e3c28988",
		"chain/D2":     "7d676e7b7280ac9bed15acbdf6e403121a353b5a992e2c3271709c0c9685124a",
		"chain/D4":     "576338a52aa2a32103237b750f10de9f2a111ae18a70ce1e8a36b7a3c323fe0e",
		"chain/D8":     "698492d3b38b97136c18b50fe151b39e29970ea7df73cbd74d96110b7dccc236",
	}
	wantAll := map[string]string{
		"exec/D2":      "a5fcfbbcba4b0ce1dff7c53e229e4ea9941be042fc290ea7b19ba5024ddf0f69",
		"exec/D4":      "4d08dab9c6166ded7a2dfad82f9644250012aeca008cec3fff5923538a5ed0a1",
		"exec/D8":      "010af4904958c79683d6665a4fd5d0562dc7bb653ac5ec3f7a180cc5b9091ea7",
		"spill/D2":     "2817e93164f11031a8d3bf31d8e86388b4a95a8171c5b9b9c93a8ac59cdd1b37",
		"spill/D4":     "a8d084cb57a30cdc84a65746d65c47e3ba953c58028224a4387e8b5a4f1fb07a",
		"spill/D8":     "2b41b5d9dc178056197b0d3d3d958a11c396db0df4473532bbc00fe159bb62ee",
		"uneven/D2":    "a18b6388dda4738a9c9554d57cb1c69ebf1d68e35f1473843ab623de03d27ecf",
		"uneven/D4":    "1913069d46021f105931954b5b4899e2b98368b464557bb196e6e90c61471e7a",
		"uneven/D8":    "512886fefa0b36e67b382ad26e42de8341cba158ae0b209762683d51e40b070d",
		"bert-base/D2": "40a966694e699a236775e7a578ee83f332a418b5c14b736532b008a20c3c29e0",
		"bert-base/D4": "a4f19d1d2dce5d5ffda92e7cb98aa62c024320183601f460e063b5f5bd0b6722",
		"bert-base/D8": "9f699cb76d725f867da190e5100afba6e7f01add62f285b0ae0d4c6b6f8ce66e",
		"chain/D2":     "52ef3b204db276dfbc203aa1d4dee6a00094d90faec0435d18c00ab107fa93ba",
		"chain/D4":     "9f2121ebfe54ec9364b3922acf900562b9296bfea73fa08a685873a88cb99d91",
		"chain/D8":     "cd60f967c5362575002b9578e1766e7b65035129be307f2ca92952a5d4e19ace",
	}
	wantOps := map[string]string{
		"exec/D2":      "6936c11e9a6191803ac9fcaae5243ac9e2a0f898ec4f044c79791e734aca10c7",
		"exec/D4":      "aaffbae61f743e7841d027339362626af32f7ac34983b7c826c47425afcb9ccb",
		"exec/D8":      "6a2a194b7ed0a6719a994f6e7029d4aff6beacc6b0195fb50ba3f6a9647e5960",
		"spill/D2":     "db98d0114ff3ea0b38365c43c56ddc741df95d30f63332cf516c17c6f89d9def",
		"spill/D4":     "d1edb1a586d46485afd718b11c392f274ad9b76a42cd73b427b502232d0e8f1a",
		"spill/D8":     "52e87c3c21f79773c278a6b2296b328eb791704b2a8547b1dd061872424c8438",
		"uneven/D2":    "cd9106e27b60c7d0d3b38988c89234b6fe9568fd8c595d18c01437d4a46b4621",
		"uneven/D4":    "4b78d1cdda9d1efc1efa82d5759c1b6e898807992b5363aac141b6197897d675",
		"uneven/D8":    "963c660cf51cd0f7f3acf16b94804003e41f32d3ec8ca6d197c7459588a1c022",
		"bert-base/D2": "33cfe50f09ab9484cd9092ef4ee688f87da1626ef485c4c8ebf3f43401381193",
		"bert-base/D4": "d5c80143b9cd7a4f9df10b74d7d533e406167e9912f742bfd7507ac03b001de5",
		"bert-base/D8": "cc965107eeb2fe6b6654db58d1ca0334f45dc38be2e8a355e724669b037c696b",
		"chain/D2":     "b30bb51d4acd1b92e163ea86085dbc59e20dbf8397ddab3bf688238f3887ba38",
		"chain/D4":     "1558fae6ee7eb827f53afbef391824437dfce80ee9612b63edcdc688bdc5d1a2",
		"chain/D8":     "6e220de7e8b0373fd5af4058eb35b678b3d78dce972bf7b8e6a90b3dc1f578c3",
	}
	commitEdge := func(op, dep *pipeline.Op) bool {
		return op.Kind == pipeline.Inversion && dep.Kind == pipeline.Precondition
	}
	carried := map[int]int{} // generation -> ops, over the whole matrix
	commitEdges := 0
	chain := matrixShape{"chain", func(_ testing.TB, w int, invParallel bool) pipeline.StageCosts {
		return chainCosts(w, invParallel)
	}}
	for _, shape := range append(slices.Clone(matrixShapes), chain) {
		for _, d := range matrixDepths() {
			h, hAll, hOps := sha256.New(), sha256.New(), sha256.New()
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
						name := fmt.Sprintf("%s %s D%d N%d W%d K%d depth %d invpar=%v", shape.name, cfg.Method,
							d, cfg.MicroBatches, cfg.DataParallelWidth, k, depth, cfg.InversionParallel)
						hashSchedule(h, s, commitEdge)
						hashSchedule(hAll, s, func(_, _ *pipeline.Op) bool { return false })
						opsOnly := *s
						opsOnly.Order = nil
						hashSchedule(hOps, &opsOnly, func(_, _ *pipeline.Op) bool { return false })
						checkCommitEdges(t, name, s)
						checkSpillRank(t, name, cfg, s)
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
			if got := hex.EncodeToString(hOps.Sum(nil)); wantOps[key] != got {
				t.Errorf("%s: ops-and-edges digest over %d schedules = %s, want %s", key, n, got, wantOps[key])
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

// checkSpillRank asserts that on every device the refresh ops that found no
// bubble — the last ones before the last step's tail — run in dependency
// rank: curvature, sync-curvature, carried inversions, the window's own
// inversions, the carried generation first within each kind, op order
// within a rank.
func checkSpillRank(t *testing.T, name string, cfg Config, s *pipeline.Schedule) {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, _, items, err := packRound(cfg, cfg.RefreshSteps)
	if err != nil {
		t.Fatal(err)
	}
	unplaced := make([]int, s.Devices)
	for _, it := range items {
		if !it.placed {
			unplaced[it.device]++
		}
	}
	// (rank, op ID) as one key.
	key := func(op *pipeline.Op) int {
		kind := slices.Index([]pipeline.WorkKind{pipeline.Curvature, pipeline.SyncCurvature, pipeline.Inversion}, op.Kind)
		return (2*kind+1-op.Generation)*len(s.Ops) + op.ID
	}
	last := s.Steps - 1
	for d, order := range s.Order {
		tail := slices.IndexFunc(order, func(id int) bool { return s.Ops[id].Kind.IsTail() && s.Ops[id].Step == last })
		if tail < unplaced[d] {
			t.Fatalf("%s: device %d has %d unplaced refresh items but its last tail starts at %d", name, d, unplaced[d], tail)
		}
		spilled := order[tail-unplaced[d] : tail]
		for i, id := range spilled {
			op := s.Ops[id]
			if !op.Kind.IsRefresh() || op.Step != last {
				t.Fatalf("%s: device %d: op %d (%s step %d) sits among the last step's unplaced refresh work", name, d, id, op.Kind, op.Step)
			}
			if i == 0 {
				continue
			}
			if prev := s.Ops[spilled[i-1]]; key(prev) >= key(op) {
				t.Fatalf("%s: device %d: unplaced %s gen %d (op %d) runs after %s gen %d (op %d)",
					name, d, op.Kind, op.Generation, id, prev.Kind, prev.Generation, prev.ID)
			}
		}
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
