package faults

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "fail:step=2,dev=1,op=curvature;stall:op=forward,delay=5ms,count=2;drop:op=sync-grad,count=1;corrupt:step=3,op=backward,micro=1"
	plan, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 4 {
		t.Fatalf("got %d faults, want 4", len(plan.Faults))
	}
	f := plan.Faults[0]
	if f.Kind != Fail || f.Step != 2 || f.Device != 1 || f.Op != pipeline.Curvature || f.Micro != Any || f.Count != 0 {
		t.Fatalf("fault 0 parsed wrong: %+v", f)
	}
	f = plan.Faults[1]
	if f.Kind != Stall || f.Delay != 5*time.Millisecond || f.Count != 2 || f.Op != pipeline.Forward || f.Step != Any {
		t.Fatalf("fault 1 parsed wrong: %+v", f)
	}
	f = plan.Faults[2]
	if f.Kind != Drop || f.Op != pipeline.SyncGrad || f.Count != 1 {
		t.Fatalf("fault 2 parsed wrong: %+v", f)
	}
	f = plan.Faults[3]
	if f.Kind != Corrupt || f.Step != 3 || f.Op != pipeline.Backward || f.Micro != 1 {
		t.Fatalf("fault 3 parsed wrong: %+v", f)
	}
	// String() renders back to a parseable, equivalent spec.
	plan2, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", plan.String(), err)
	}
	if len(plan2.Faults) != len(plan.Faults) {
		t.Fatalf("round-trip changed fault count: %d vs %d", len(plan2.Faults), len(plan.Faults))
	}
	for i := range plan.Faults {
		if plan.Faults[i] != plan2.Faults[i] {
			t.Errorf("fault %d round-trip mismatch: %+v vs %+v", i, plan.Faults[i], plan2.Faults[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"explode:step=1",
		"fail:step=x",
		"fail:bogus=1",
		"fail:step",
		"stall:op=forward",       // stall without delay
		"stall:delay=-1ms",       // negative delay
		"fail:count=-1",          // negative count
		"fail:op=quantum-tunnel", // unknown op kind
		";;",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// Only kinds a schedule can emit are fault targets — exactly the kinds the
// vocabulary marks emitted, in declaration order Forward..OptStep, the order
// Random's draws index: a label-only kind is rejected with the list of the
// valid ones, and Random never spends a draw on one.
func TestOpKindsAreScheduleOps(t *testing.T) {
	want := []pipeline.WorkKind{
		pipeline.Forward, pipeline.Backward, pipeline.Curvature, pipeline.Inversion,
		pipeline.Precondition, pipeline.SyncGrad, pipeline.SyncCurvature, pipeline.OptStep,
	}
	if !slices.Equal(opKinds, want) {
		t.Fatalf("opKinds = %v, want %v", opKinds, want)
	}
	for _, k := range pipeline.Kinds() {
		if k.IsEmitted() != slices.Contains(opKinds, k) {
			t.Errorf("%s: emitted %v but fault target %v", k, k.IsEmitted(), !k.IsEmitted())
		}
	}
	_, err := Parse("fail:op=recompute")
	if err == nil || !strings.Contains(err.Error(), "backward, curvature, forward") {
		t.Fatalf("Parse(fail:op=recompute) = %v, want an unknown-op error listing the valid ops", err)
	}
	for _, f := range Random(1, 200, 4, 2).Faults {
		if f.Op > pipeline.OptStep {
			t.Fatalf("Random drew op %s, which no schedule contains", f.Op)
		}
	}
}

// Random draws the plans it drew when its op list was written out by hand:
// soak runs keyed by seed keep reproducing the same faults.
func TestRandomRecordedPlans(t *testing.T) {
	for seed, want := range map[int64]string{
		1:  "stall:step=3,op=opt-step,count=2,delay=3ms;stall:step=0,dev=1,op=forward,count=1,delay=3ms;stall:step=0,op=curvature,count=2,delay=2ms;drop:step=3,dev=0,op=curvature,count=1;corrupt:step=3,op=forward,count=1",
		7:  "drop:step=2,dev=2,op=sync-grad,count=2;fail:step=2,dev=1,op=forward,count=1;drop:step=2,dev=0,op=opt-step,count=1;stall:step=2,op=precondition,count=1,delay=4ms;stall:step=1,op=opt-step,count=2,delay=4ms",
		42: "stall:step=3,op=precondition,count=1,delay=2ms;stall:step=0,op=forward,count=2,delay=4ms;corrupt:step=0,dev=2,op=precondition,count=2;corrupt:step=0,dev=0,op=curvature,count=1;fail:step=1,op=curvature,count=2",
	} {
		if got := Random(seed, 5, 4, 3).String(); got != want {
			t.Errorf("Random(%d, 5, 4, 3) = %q, want %q", seed, got, want)
		}
	}
}

func TestInjectorMatching(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Fail, Step: 2, Device: 1, Op: pipeline.Curvature, Micro: Any},
	}}
	in := NewInjector(plan)
	if out := in.At(2, 1, pipeline.Curvature, 0); out.Err == nil {
		t.Fatal("exact match did not fire")
	}
	for _, c := range []struct {
		step, dev int
		kind      pipeline.WorkKind
	}{
		{1, 1, pipeline.Curvature}, // wrong step
		{2, 0, pipeline.Curvature}, // wrong device
		{2, 1, pipeline.Forward},   // wrong op
	} {
		if out := in.At(c.step, c.dev, c.kind, 0); out.Err != nil || out.Delay != 0 || out.Corrupt {
			t.Errorf("At(%d,%d,%s) fired, want miss", c.step, c.dev, c.kind)
		}
	}
	// Error names the coordinates.
	out := in.At(2, 1, pipeline.Curvature, 3)
	for _, want := range []string{"step 2", "device 1", "curvature", "micro 3"} {
		if !strings.Contains(out.Err.Error(), want) {
			t.Errorf("error %q missing %q", out.Err, want)
		}
	}
}

func TestInjectorWildcardsAndKinds(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Stall, Step: Any, Device: Any, Op: pipeline.Forward, Micro: Any, Delay: time.Millisecond},
		{Kind: Corrupt, Step: Any, Device: Any, Op: pipeline.Forward, Micro: 1},
		{Kind: Drop, Step: Any, Device: Any, Op: pipeline.SyncGrad, Micro: Any},
	}}
	in := NewInjector(plan)
	out := in.At(7, 3, pipeline.Forward, 1)
	if out.Delay != time.Millisecond || !out.Corrupt || out.Err != nil {
		t.Fatalf("combined outcome wrong: %+v", out)
	}
	out = in.At(7, 3, pipeline.Forward, 0)
	if out.Delay != time.Millisecond || out.Corrupt {
		t.Fatalf("micro filter wrong: %+v", out)
	}
	if out := in.At(0, 0, pipeline.SyncGrad, 0); out.Err == nil {
		t.Fatal("drop fault did not fire on sync-grad")
	}
}

func TestInjectorCountPersists(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Fail, Step: Any, Device: Any, Op: pipeline.Backward, Micro: Any, Count: 2},
	}}
	in := NewInjector(plan)
	fired := 0
	// Counts persist across rounds/replays: the third and later matches do
	// not fire no matter how the calls are grouped.
	for i := 0; i < 5; i++ {
		if out := in.At(i, 0, pipeline.Backward, 0); out.Err != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("count-limited fault fired %d times, want 2", fired)
	}
	if in.Fired(0) != 2 {
		t.Fatalf("Fired(0) = %d, want 2", in.Fired(0))
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if out := in.At(0, 0, pipeline.Forward, 0); out != (Outcome{}) {
		t.Fatalf("nil injector fired: %+v", out)
	}
	if NewInjector(nil) != nil {
		t.Fatal("NewInjector(nil) != nil")
	}
}

func TestParseRankAndKill(t *testing.T) {
	plan, err := Parse("kill:rank=1,step=2,count=1")
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Faults[0]
	if f.Kind != Kill || f.Rank != 1 || f.Step != 2 || f.Count != 1 || f.Op != OpAny {
		t.Fatalf("kill fault parsed wrong: %+v", f)
	}
	// rank= round-trips through String.
	plan2, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", plan.String(), err)
	}
	if plan2.Faults[0] != f {
		t.Fatalf("round-trip mismatch: %+v vs %+v", plan2.Faults[0], f)
	}
	if !strings.Contains(plan.String(), "rank=1") {
		t.Fatalf("String() = %q, missing rank selector", plan.String())
	}
	if _, err := Parse("kill:rank=-2"); err == nil {
		t.Fatal("negative rank parsed")
	}
	// A kill fires as Outcome.Kill at its coordinates.
	in := NewInjector(plan)
	if out := in.At(2, 0, pipeline.Forward, 0); !out.Kill || out.Err != nil {
		t.Fatalf("kill outcome wrong: %+v", out)
	}
	if out := in.At(2, 0, pipeline.Backward, 0); out.Kill {
		t.Fatal("count-limited kill fired twice")
	}
}

func TestPlanForRank(t *testing.T) {
	plan, err := Parse("kill:rank=2,step=1;fail:op=backward;stall:rank=0,delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	r0 := plan.ForRank(0)
	if len(r0.Faults) != 2 || r0.Faults[0].Kind != Fail || r0.Faults[1].Kind != Stall {
		t.Fatalf("ForRank(0) = %+v, want the wildcard fail and the rank-0 stall", r0)
	}
	r2 := plan.ForRank(2)
	if len(r2.Faults) != 2 || r2.Faults[0].Kind != Kill || r2.Faults[1].Kind != Fail {
		t.Fatalf("ForRank(2) = %+v, want the rank-2 kill and the wildcard fail", r2)
	}
	only, err := Parse("kill:rank=2")
	if err != nil {
		t.Fatal(err)
	}
	if only.ForRank(1) != nil {
		t.Fatal("ForRank with no applicable faults should be nil (never-firing)")
	}
	if (*Plan)(nil).ForRank(0) != nil {
		t.Fatal("nil plan ForRank should stay nil")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(42, 6, 10, 4)
	b := Random(42, 6, 10, 4)
	if len(a.Faults) != 6 || a.Seed != 42 {
		t.Fatalf("Random shape wrong: %+v", a)
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("Random not deterministic at %d: %+v vs %+v", i, a.Faults[i], b.Faults[i])
		}
	}
	c := Random(43, 6, 10, 4)
	same := true
	for i := range a.Faults {
		if a.Faults[i] != c.Faults[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
	for _, f := range a.Faults {
		if f.Count < 1 || f.Count > 2 {
			t.Errorf("Random fault count %d outside [1,2]", f.Count)
		}
		if f.Kind == Stall && (f.Delay <= 0 || f.Delay > 10*time.Millisecond) {
			t.Errorf("Random stall delay %v outside sane range", f.Delay)
		}
		if f.Step < 0 || f.Step >= 10 {
			t.Errorf("Random step %d outside [0,10)", f.Step)
		}
	}
}
