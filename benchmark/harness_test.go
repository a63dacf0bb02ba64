package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/pipemodel"
	"repro/internal/transport"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

func TestStepsToLoss(t *testing.T) {
	// A held-out loss evaluated every 10 steps, falling by 2 per evaluation.
	steps := []int{0, 10, 20, 30, 40}
	loss := []float64{10, 8, 6, 4, 2}
	// 5 lies halfway between the evaluations at steps 20 and 30.
	if n, ok := stepsToLoss(steps, loss, 5); n != 25 || !ok {
		t.Errorf("stepsToLoss = %v, %v; want 25, true", n, ok)
	}
	// Met exactly at an evaluation.
	if n, ok := stepsToLoss(steps, loss, 4); n != 30 || !ok {
		t.Errorf("stepsToLoss on an evaluation = %v, %v; want 30, true", n, ok)
	}
	// Already there before the first step: one step, never zero.
	if n, ok := stepsToLoss(steps, loss, 100); n != 1 || !ok {
		t.Errorf("stepsToLoss with an easy target = %v, %v; want 1, true", n, ok)
	}
	// Never reached: the budget, and not reached.
	if n, ok := stepsToLoss(steps, loss, 0.5); n != 40 || ok {
		t.Errorf("stepsToLoss with an unreachable target = %v, %v; want 40, false", n, ok)
	}
	// A dip below the target that does not last is not the answer: the
	// curve is at or below 5 for good only between steps 30 and 40.
	if n, ok := stepsToLoss(steps, []float64{9, 3, 7, 7, 3}, 5); n != 35 || !ok {
		t.Errorf("stepsToLoss past a dip = %v, %v; want 35, true", n, ok)
	}
	// Ending above the target is not reaching it, whatever happened before.
	if n, ok := stepsToLoss(steps, []float64{9, 1, 1, 9, 9}, 5); n != 40 || ok {
		t.Errorf("stepsToLoss ending above the target = %v, %v; want 40, false", n, ok)
	}
	if got := minOf([]float64{3, 1, 2}); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
}

// The held-out evaluation must leave the arm it reads exactly as it was: an
// evaluated run and an unevaluated one train to the same losses.
func TestEvaluationLeavesTrainingAlone(t *testing.T) {
	w, err := findWorkload("tiny_1f1b")
	if err != nil {
		t.Fatal(err)
	}
	train := func(evaluate bool) []float64 {
		a, err := buildArm(w, 1, armSpec{name: "pipefisher", kfac: true, lrTotal: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer a.close()
		ev, err := newEvaluator(w)
		if err != nil {
			t.Fatal(err)
		}
		c, err := data.NewCorpus(w.cfg.VocabSize, 1.0, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out, held []float64
		for i := 0; i < 12; i++ {
			sr, _, err := a.round(w.batches(c, w.k))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sr[0].Loss.Total)
			if evaluate {
				l, err := ev.loss(a)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, l)
			}
		}
		if evaluate && !(held[len(held)-1] < held[0]) {
			t.Errorf("held-out loss did not fall over 12 steps: %v", held)
		}
		return out
	}
	if with, without := train(true), train(false); !reflect.DeepEqual(with, without) {
		t.Errorf("evaluating changed the training losses:\n%v\n%v", with, without)
	}
}

func TestPairRatioMedian(t *testing.T) {
	// One outlier pair (a stall that hit one block) must not move the
	// result the way it moves a ratio of sums.
	num := []float64{11, 11, 50, 11, 11}
	den := []float64{10, 10, 10, 10, 10}
	if got := pairRatioMedian(num, den); got != 1.1 {
		t.Errorf("pairRatioMedian = %v, want 1.1", got)
	}
	if got := pairRatioMedian([]float64{2, 4}, []float64{1, 0}); got != 2 {
		t.Errorf("pairRatioMedian must skip a zero base, got %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a: union [10,60)
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{Name: "d", ID: 4, Parent: 1, Start: 15, End: 20},  // grandchild: counts against a, not round
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}

	log := newSpanLog()
	id := log.begin("x", "arm", -1)
	log.end(id)
	if d, n := log.total("x", "arm"); n != 1 || d < 0 {
		t.Errorf("total = %v, %d", d, n)
	}
	if _, n := log.total("x", "other"); n != 0 {
		t.Error("total mixed two arms")
	}
	log.reset()
	if _, n := log.total("x", "arm"); n != 0 {
		t.Error("reset kept spans")
	}
}

// The engine finds these optional interfaces by type assertion on the
// transport.Group it was given; the decorator must still promote them.
func TestTracedRingKeepsOptionalInterfaces(t *testing.T) {
	var g transport.Group = &tracedRing{}
	if _, ok := g.(interface{ View() int64 }); !ok {
		t.Error("decorated ring lost View")
	}
	if _, ok := g.(interface{ RankStats() []transport.RankStat }); !ok {
		t.Error("decorated ring lost RankStats")
	}
	if _, ok := g.(interface{ ObserveRoundDuration(time.Duration) }); !ok {
		t.Error("decorated ring lost ObserveRoundDuration")
	}
}

func TestTracedModelSurvivesReplicate(t *testing.T) {
	m, err := bert.New(bert.TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	var pm pipemodel.Model = &tracedModel{Model: m, ctx: newSpanCtx(log, "arm")}
	rep, err := pm.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(*tracedModel); !ok {
		t.Fatalf("Replicate returned %T: the replica fell out of the trace", rep)
	}
	c, err := data.NewCorpus(m.Config.VocabSize, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep.EmbedForward(c.MakeBatch(2, data.DefaultBatchConfig(m.Config.SeqLen)))
	if _, n := log.total("bert.embed", "arm"); n != 1 {
		t.Errorf("replica's EmbedForward recorded %d spans, want 1", n)
	}
}

// replayOnLoopback's twin of tiny_ring2 must be tiny_1f1b's pipefisher arm:
// that is what makes "equal to the loopback replay" mean "equal to
// tiny_1f1b".
func TestRingTwinIsTinyLoopbackWorkload(t *testing.T) {
	a, err := findWorkload("tiny_1f1b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := findWorkload("tiny_ring2")
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg != b.cfg || a.method != b.method || a.micro != b.micro*b.ranks || a.k != b.k ||
		a.overlap != b.overlap || a.refreshEvery != b.refreshEvery || a.lrSteps != b.lrSteps || a.ranks != 1 {
		t.Errorf("tiny_ring2 on one loopback rank is not tiny_1f1b:\n%+v\n%+v", *a, *b)
	}
}

func TestBudgetIsWholeBlocks(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		b := w.blockSteps()
		if b > maxBlock || b%w.k != 0 {
			t.Errorf("%s: block of %d steps with K=%d", w.name, b, w.k)
		}
		for _, share := range []float64{1, 1.0 / 3, 0.01} {
			n := w.budget(w.steps, nominalSeconds, share)
			if n%b != 0 || n < 2*b {
				t.Errorf("%s: budget %d at share %v is not >= 2 whole blocks of %d", w.name, n, share, b)
			}
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "x", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "y", Better: "higher", Bound: 0.1}
	tight := []float64{100, 100, 101, 99}
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b []float64
		same bool
		want string
	}{
		{"within bound", lower, tight, []float64{105, 105, 105, 105}, true, verdictOK},
		{"lower got higher", lower, tight, []float64{120, 120, 120, 120}, true, verdictWorse},
		{"higher got lower", higher, tight, []float64{80, 80, 80, 80}, true, verdictWorse},
		{"higher got higher", higher, tight, []float64{150, 150, 150, 150}, true, verdictOK},
		{"spread hides it", lower, []float64{60, 100, 100, 140}, tight, true, verdictUnresolved},
		{"spread hides a loss too", lower, []float64{60, 100, 100, 140}, []float64{150, 150, 150, 150}, true, verdictUnresolved},
		{"under the floor", metricDecl{Name: "s", Better: "lower", Bound: 0.2, Floor: 0.1}, []float64{0.15, 0.15, 0.15, 0.15}, []float64{0.2, 0.2, 0.2, 0.2}, true, verdictOK},
		{"over the floor", metricDecl{Name: "s", Better: "lower", Bound: 0.2, Floor: 0.1}, []float64{1, 1, 1, 1}, []float64{1.3, 1.3, 1.3, 1.3}, true, verdictWorse},
		{"one run a side", lower, []float64{100}, []float64{150}, true, verdictUnresolved},
		{"one run a side, close", lower, []float64{100}, []float64{105}, true, verdictOK},
		{"no bound", metricDecl{Name: "z", Better: "lower"}, tight, []float64{500}, false, verdictTracked},
		{"count repeats", metricDecl{Name: "n", Exact: true}, []float64{7, 8}, []float64{7, 8}, true, verdictOK},
		{"count differs", metricDecl{Name: "n", Exact: true}, []float64{7, 8}, []float64{7, 9}, true, verdictDiffers},
		{"count, other seeds", metricDecl{Name: "n", Exact: true}, []float64{7, 8}, []float64{9}, false, verdictTracked},
	} {
		if got := judge(c.d, c.a, c.b, c.same); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestContractLine(t *testing.T) {
	res := &runResult{Metrics: map[string]metricValue{}, Attempted: 10}
	for _, d := range endToEndMetrics {
		res.set(d.Name, 1.5)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(contractLine(res, endToEndMetrics)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics on the line, %d declared", len(metrics), len(endToEndMetrics))
	}
	if string(got["correct"]) != "true" {
		t.Errorf("correct = %s", got["correct"])
	}
	res.violate("x")
	if !strings.Contains(contractLine(res, endToEndMetrics), `"correct":false`) {
		t.Error("a violation must make the run incorrect")
	}
}

// BENCHMARK.json at the root of the repository is generated from this
// package (benchmark -manifest); it must not drift from the code.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var file, code any
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifest()), &code); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, code) {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with: benchmark -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The -quick smoke: every workload, untraced and traced, at ~1% budget;
// every declared metric of the run's kind is emitted exactly once, nothing
// undeclared is, and the correctness gate passes. -short keeps to the two
// tiny workloads (the other two build real-size models: ~15 s).
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if testing.Short() && w.cfg.DModel > 32 {
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := run(runOpts{w: w, seed: 1, seconds: nominalSeconds, traced: traced, quick: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d steps failed: %v", w.name, traced, res.Failed, res.Violations)
			}
			decls := endToEndMetrics
			if traced {
				decls = perLayerMetrics
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, d.Name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(decls) { // a map: "exactly once" is "no extras"
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			var line struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(res, decls)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: contract line carries %d metrics, BENCHMARK.json declares %d", w.name, traced, len(line.Metrics), len(decls))
			}
			if !traced {
				for _, d := range endToEndMetrics {
					if res.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
					}
				}
			}
		}
	}
}
