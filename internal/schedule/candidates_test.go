package schedule

import (
	"testing"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

func tunerCosts(nFactors int) pipeline.StageCosts {
	c := pipeline.StageCosts{Forward: 100, Backward: 200, Precondition: 25, OptStep: 10}
	for i := 0; i < nFactors; i++ {
		c.CurvatureUnits = append(c.CurvatureUnits, 6)
		c.CurvaturePerMicroBatch += 6
		c.InversionUnits = append(c.InversionUnits, 10)
	}
	return c
}

func TestEnumerateFiltersInvalidCandidates(t *testing.T) {
	cands := Enumerate(Space{Stages: 3, MicroBatches: 4, DataParallelWidth: 1, MaxRefreshSteps: 2})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.Method == "chimera" {
			t.Fatalf("chimera enumerated for odd stage count: %v", c)
		}
		if c.InversionParallel {
			t.Fatalf("inversion sharding enumerated for W=1 gpipe/1f1b: %v", c)
		}
		if c.RefreshSteps < 1 || c.RefreshSteps > 2 {
			t.Fatalf("K out of range: %v", c)
		}
	}
	// gpipe + 1f1b, K in {1,2}, overlap in {false,true} = 8.
	if len(cands) != 8 {
		t.Fatalf("len = %d, want 8: %v", len(cands), cands)
	}
}

func TestEnumerateChimeraAndInvparAndDepth(t *testing.T) {
	cands := Enumerate(Space{Stages: 4, MicroBatches: 4, DataParallelWidth: 2, MaxRefreshSteps: 1})
	var sawChimera, sawInvpar, sawOverlap bool
	for _, c := range cands {
		if c.Method == "chimera" {
			sawChimera = true
		}
		if c.InversionParallel {
			sawInvpar = true
		}
		if c.Overlap {
			sawOverlap = true
		}
	}
	if !sawChimera || !sawInvpar || !sawOverlap {
		t.Fatalf("missing variants (chimera=%v invpar=%v overlap=%v): %v", sawChimera, sawInvpar, sawOverlap, cands)
	}
}

func TestRankCandidatesOrdersByStepTime(t *testing.T) {
	base := Config{Stages: 2, MicroBatches: 4, Costs: tunerCosts(4), DataParallelWidth: 1}
	cands := Enumerate(Space{Stages: 2, MicroBatches: 4, DataParallelWidth: 1, MaxRefreshSteps: 4})
	preds := RankCandidates(base, cands)
	if len(preds) != len(cands) {
		t.Fatalf("predictions dropped: %d of %d", len(preds), len(cands))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].StepTime < preds[i-1].StepTime {
			t.Fatalf("not sorted at %d: %v then %v", i, preds[i-1], preds[i])
		}
	}
	// 1f1b's bubble fraction beats gpipe's for any K on this topology; the
	// best candidate must not be a gpipe round.
	if best := preds[0].Candidate; best.Method == "gpipe" {
		t.Fatalf("gpipe ranked best: %v (predictions %v)", best, preds[:3])
	}
	// Predictions must be consistent with direct Predict calls.
	p, err := Predict(base, preds[0].Candidate)
	if err != nil {
		t.Fatal(err)
	}
	if p.StepTime != preds[0].StepTime {
		t.Fatalf("Predict disagrees with RankCandidates: %d vs %d", p.StepTime, preds[0].StepTime)
	}
}

func TestRankCandidatesTieBreaksTowardSerialized(t *testing.T) {
	// With every duration 1, schedules are tiny and many candidates tie;
	// the serialized variant must rank ahead of its overlapped twin.
	costs := pipeline.StageCosts{Forward: 1, Backward: 1, Precondition: 1, OptStep: 1,
		CurvatureUnits: []hardware.Microseconds{1, 1}, CurvaturePerMicroBatch: 2,
		InversionUnits: []hardware.Microseconds{1, 1}}
	base := Config{Stages: 2, MicroBatches: 2, Costs: costs, DataParallelWidth: 1}
	preds := RankCandidates(base, []Candidate{
		{Method: "1f1b", RefreshSteps: 2, Overlap: true},
		{Method: "1f1b", RefreshSteps: 2},
	})
	if len(preds) != 2 {
		t.Fatalf("predictions dropped: %v", preds)
	}
	if preds[0].StepTime == preds[1].StepTime && preds[0].Candidate.Overlap {
		t.Fatalf("tie broke toward overlap: %v", preds)
	}
}
