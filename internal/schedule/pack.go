package schedule

import (
	"sort"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// freeList tracks the remaining bubble intervals of one device.
type freeList struct {
	gaps []pipeline.Gap
}

// freshFree builds per-device free lists over the timeline's bubbles.
func freshFree(tl *pipeline.Timeline) []*freeList {
	free := make([]*freeList, tl.Devices)
	for d := range free {
		free[d] = &freeList{gaps: tl.Gaps(d, 0, tl.Makespan)}
	}
	return free
}

// place books dur units of work at or after ready and returns the booked
// pieces: split across as many gaps as it takes ("otherwise, subsequent
// bubbles are utilized"), or — whole, the NoSplit ablation — in the first
// single gap that holds all of it. ok is false when the free list is
// exhausted first.
func (fl *freeList) place(ready, dur hardware.Microseconds, whole bool) (pieces []pipeline.Gap, ok bool) {
	remaining := dur
	for i := 0; i < len(fl.gaps) && remaining > 0; i++ {
		g := fl.gaps[i]
		start := max(g.Start, ready)
		if start >= g.End {
			continue
		}
		avail := g.End - start
		if whole && avail < remaining {
			continue
		}
		take := min(remaining, avail)
		pieces = append(pieces, pipeline.Gap{Device: g.Device, Start: start, End: start + take})
		remaining -= take
		// Shrink the gap: [g.Start, start) stays free; [start+take, g.End)
		// stays free.
		var repl []pipeline.Gap
		if start > g.Start {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: g.Start, End: start})
		}
		if start+take < g.End {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: start + take, End: g.End})
		}
		fl.gaps = append(fl.gaps[:i], append(repl, fl.gaps[i+1:]...)...)
		i += len(repl) - 1
	}
	return pieces, remaining == 0
}

// foldFrontier carries what the carried generation, packed before the
// window's own, did to each (stage, layer): the latest end of the pair's
// placed inversions, and whether one of them found no bubble. The window's
// own inversion of the pair must start after the former and is deferred
// behind the latter, which keeps the per-layer EMA fold order sequential
// across generations on every device order.
type foldFrontier struct {
	layers  int // layer pairs per stage
	end     []hardware.Microseconds
	blocked []bool
}

func newFoldFrontier(cfg Config) *foldFrontier {
	layers := (len(cfg.Costs.InversionUnits) + 1) / 2
	return &foldFrontier{
		layers:  layers,
		end:     make([]hardware.Microseconds, cfg.Stages*layers),
		blocked: make([]bool, cfg.Stages*layers),
	}
}

// of indexes the frontier by the item's (stage, layer).
func (f *foldFrontier) of(it *workItem) int { return it.stage*f.layers + it.factor/2 }

// packGeneration is the one pass that puts K-FAC work into bubbles (§3.1,
// the three rules of the package doc): it places the work items of one
// statistics generation into what is left of the free lists —
//
//  1. the generation's curvature, in readiness order;
//  2. each stage's sync-curvature, once ALL of the stage's curvature found a
//     slot, after the latest of it;
//  3. each inversion, once the stage's curvature and syncs all found slots
//     and no carried inversion of the layer pair is stranded, after the
//     layer pair's curvature on every owner, the stage's syncs and the
//     carried generation's inversions of the pair; the steps of an
//     inversion chain follow one another, each whole in one bubble.
//
// An item whose gate did not place is left unplaced; it then executes
// before the round's tail, so a wait can never cycle. The generation's own
// inversions join the frontier only once the pass is over: inversions of
// one generation share a statistics pool and do not order among themselves.
func packGeneration(items []*workItem, gen int, free []*freeList, cfg Config, deeper *foldFrontier) {
	var curv []*workItem
	for _, it := range items {
		if it.gen == gen && it.kind == pipeline.Curvature {
			curv = append(curv, it)
		}
	}
	sort.SliceStable(curv, func(i, j int) bool { return curv[i].readyAt < curv[j].readyAt })
	place := func(it *workItem) bool {
		// A chain step is packed whole: it runs as one op.
		it.pieces, it.placed = free[it.device].place(it.readyAt, it.duration, cfg.NoSplit || it.chain > 0)
		return it.placed
	}

	curvEnd := make([]hardware.Microseconds, cfg.Stages)      // latest curvature end of the stage
	pairEnd := make([]hardware.Microseconds, len(deeper.end)) // ... of the (stage, layer) pair
	curvSpilled := make([]bool, cfg.Stages)
	for _, it := range curv {
		if !place(it) {
			curvSpilled[it.stage] = true
			continue
		}
		curvEnd[it.stage] = max(curvEnd[it.stage], it.end())
		pairEnd[deeper.of(it)] = max(pairEnd[deeper.of(it)], it.end())
	}

	syncEnd := make([]hardware.Microseconds, cfg.Stages)
	syncSpilled := make([]bool, cfg.Stages)
	for _, it := range items {
		if it.gen != gen || it.kind != pipeline.SyncCurvature {
			continue
		}
		if curvSpilled[it.stage] {
			syncSpilled[it.stage] = true
			continue
		}
		it.readyAt = curvEnd[it.stage]
		if !place(it) {
			syncSpilled[it.stage] = true
			continue
		}
		syncEnd[it.stage] = max(syncEnd[it.stage], it.end())
	}

	genEnd := make([]hardware.Microseconds, len(deeper.end))
	genBlocked := make([]bool, len(deeper.end))
	for _, it := range items {
		if it.gen != gen || it.kind != pipeline.Inversion {
			continue
		}
		l := deeper.of(it)
		switch {
		case it.chain > 1 && !it.prev.placed,
			it.chain <= 1 && (curvSpilled[it.stage] || syncSpilled[it.stage] || deeper.blocked[l]):
			genBlocked[l] = true
			continue
		case it.chain > 1:
			// A later chain step follows the step before it.
			it.readyAt = it.prev.end()
		default:
			it.readyAt = max(pairEnd[l], syncEnd[it.stage], deeper.end[l])
		}
		if !place(it) {
			genBlocked[l] = true
			continue
		}
		genEnd[l] = max(genEnd[l], it.end())
	}
	for l := range genEnd {
		deeper.end[l] = max(deeper.end[l], genEnd[l])
		deeper.blocked[l] = deeper.blocked[l] || genBlocked[l]
	}
}

// packWindow packs one refresh into the bubbles of the timeline. Under
// Config.Overlap it packs the steady state of overlapping windows, where
// carry is one round: refresh work that does not fit its own window
// executes lagged, in the NEXT window's early bubbles (generation 1), and
// the carry set is grown to a fixed point so the schedule is
// self-consistent — what spills out of the window is exactly what the
// window absorbs as carried work from its predecessor. Each iteration
// places the current generation assignment, the carried generation first
// (it has been queued longest and gates the fold order; carried curvature
// is ready the moment the window starts, so it takes the early bubbles a
// window's own statistics cannot use yet), then promotes every unplaced
// generation-0 item to generation 1, closed over carryClosure's
// lag-monotonicity. Carried items that still do not fit stay unplaced and
// serialize before the window's tail. The serialized round promotes
// nothing, so its fixed point is the first iteration: generation 0 packed
// into the whole window. Generations only grow and are at most 1, so the
// loop terminates; when nothing spills on the first iteration both forms
// yield the same packing.
func packWindow(items []*workItem, tl *pipeline.Timeline, cfg Config) {
	for {
		free := freshFree(tl)
		for _, it := range items {
			it.pieces, it.placed = nil, false
			// Sync and inversion readiness is derived during packing, and
			// carried curvature reads a previous window's pooled snapshots:
			// ready at window start. Own-window curvature keeps its
			// buildWorkQueue readiness (a generation never decreases, so
			// overwriting is safe across iterations).
			if it.gen > 0 {
				it.readyAt = 0
			}
		}
		frontier := newFoldFrontier(cfg)
		for gen := 1; gen >= 0; gen-- {
			packGeneration(items, gen, free, cfg, frontier)
		}

		grew := false
		for _, it := range items {
			if cfg.Overlap && !it.placed && it.gen == 0 {
				it.gen = 1
				grew = true
			}
		}
		if !grew {
			return
		}
		carryClosure(items)
	}
}

// carryClosure restores lag-monotonicity within one statistics generation
// after promotions: a sync-curvature depends on ALL the stage's curvature,
// so its lag must be at least the stage's deepest curvature lag; an
// inversion depends on its layer pair's curvature and the stage's syncs, so
// its lag must cover both. (Ops at lag g execute g windows after the
// statistics were collected; a consumer at a lag below its producer would
// run in an earlier window than its inputs.) Curvature carries individually
// — each micro-batch term folds into the generation's pooled partials
// independently — and deeper-lag work of OTHER statistics generations never
// constrains this one: cross-generation order is enforced by round
// sequencing, not edges. The steps of an inversion chain share one
// generation, its deepest: a chain never straddles windows.
func carryClosure(items []*workItem) {
	pairGen := make(map[[2]int]int) // (stage, layer) -> max curvature gen
	stageGen := make(map[int]int)   // stage -> max curvature gen
	for _, it := range items {
		if it.kind == pipeline.Curvature {
			key := [2]int{it.stage, it.factor / 2}
			pairGen[key] = max(pairGen[key], it.gen)
			stageGen[it.stage] = max(stageGen[it.stage], it.gen)
		}
	}
	syncGen := make(map[int]int) // stage -> max sync gen
	for _, it := range items {
		if it.kind == pipeline.SyncCurvature {
			it.gen = max(it.gen, stageGen[it.stage])
			syncGen[it.stage] = max(syncGen[it.stage], it.gen)
		}
	}
	chainGen := make(map[[3]int]int) // (stage, factor, device) -> deepest step gen
	for _, it := range items {
		if it.kind == pipeline.Inversion {
			it.gen = max(it.gen, pairGen[[2]int{it.stage, it.factor / 2}], syncGen[it.stage])
			if it.chain > 0 {
				key := [3]int{it.stage, it.factor, it.device}
				chainGen[key] = max(chainGen[key], it.gen)
			}
		}
	}
	for _, it := range items {
		if it.chain > 0 {
			it.gen = chainGen[[3]int{it.stage, it.factor, it.device}]
		}
	}
}
