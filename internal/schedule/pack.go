package schedule

import (
	"slices"
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
		// Shrink the gap in place: [g.Start, start) stays free;
		// [start+take, g.End) stays free.
		var buf [2]pipeline.Gap
		repl := buf[:0]
		if start > g.Start {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: g.Start, End: start})
		}
		if start+take < g.End {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: start + take, End: g.End})
		}
		fl.gaps = slices.Replace(fl.gaps, i, i+1, repl...)
		i += len(repl) - 1
	}
	return pieces, remaining == 0
}

// packGeneration is the one pass that puts K-FAC work into bubbles (§3.1,
// the three rules of the package doc): it places the work items of one
// statistics generation into what is left of the free lists — first the
// generation's curvature, in readiness order, then each stage's
// sync-curvature, then each inversion step — each sync and inversion step
// at the latest end of its inputs (workItem.inputs), and only once every
// input found a slot. A sync reads all of its stage's curvature; an
// inversion's first step the curvature of its layer pair and its stage's
// syncs, and the carried generation's inversions of the pair; a later
// chain step the step before it, so a chain's steps follow one another,
// each whole in one bubble. An item with an unplaced input is left
// unplaced; it then executes before the round's tail, so a wait can never
// cycle.
func packGeneration(items []*workItem, gen int, free []*freeList, cfg Config) {
	var curv []*workItem
	for _, it := range items {
		if it.gen == gen && it.kind == pipeline.Curvature {
			curv = append(curv, it)
		}
	}
	sort.SliceStable(curv, func(i, j int) bool { return curv[i].readyAt < curv[j].readyAt })
	place := func(it *workItem) {
		// A chain step is packed whole: it runs as one op.
		it.pieces, it.placed = free[it.device].place(it.readyAt, it.duration, cfg.NoSplit || it.chain > 0)
	}
	for _, it := range curv {
		place(it)
	}
	for _, kind := range []pipeline.WorkKind{pipeline.SyncCurvature, pipeline.Inversion} {
		for _, it := range items {
			if it.gen != gen || it.kind != kind {
				continue
			}
			blocked := false
			it.readyAt = 0
			it.inputs(func(in *workItem) {
				if !in.placed {
					blocked = true
					return
				}
				it.readyAt = max(it.readyAt, in.end())
			})
			if !blocked {
				place(it)
			}
		}
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
// generation-0 item to generation 1, closed over its deps by carryClosure.
// Carried items that still do not fit stay unplaced and serialize before
// the window's tail. The serialized round promotes nothing, so its fixed
// point is the first iteration: generation 0 packed into the whole window.
// Generations only grow and are at most 1, so the loop terminates; when
// nothing spills on the first iteration both forms yield the same packing.
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
		for gen := 1; gen >= 0; gen-- {
			packGeneration(items, gen, free, cfg)
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

// carryClosure restores lag-monotonicity after promotions: an item's lag is
// at least each of its deps' (ops at lag g execute g windows after the
// statistics were collected; a consumer at a lag below its producer would
// run in an earlier window than its inputs). One pass in item order
// suffices, since buildWorkQueue puts every item after its deps. Curvature
// has no deps and carries individually — each micro-batch term folds into
// the generation's pooled partials independently — and after items bind
// no lag: cross-generation order is enforced by round sequencing, not
// edges. The steps of an inversion chain then share one generation, their
// last step's and so their deepest: a chain never straddles windows.
func carryClosure(items []*workItem) {
	for _, it := range items {
		for _, d := range it.deps {
			it.gen = max(it.gen, d.gen)
		}
	}
	for i := len(items) - 1; i >= 0; i-- {
		if it := items[i]; it.prev != nil {
			it.prev.gen = it.gen
		}
	}
}
