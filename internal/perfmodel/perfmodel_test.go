package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/hardware"
)

func eval(t *testing.T, in Input) *Model {
	t.Helper()
	m, err := Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBubbleIdentity(t *testing.T) {
	m := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 16})
	want := m.TPipe - 8*(m.Tf+m.Tb)
	if m.TBubble != want {
		t.Fatalf("TBubble = %d, want %d", m.TBubble, want)
	}
	if m.TStep != m.TPipe+m.Tprec {
		t.Fatal("TStep must be TPipe + Tprec")
	}
}

func TestChimeraBeatsGPipeThroughput(t *testing.T) {
	// Figures 9/10: Chimera consistently achieves higher throughput
	// (smaller TBubble), but refreshes curvature less frequently (larger
	// ratio).
	for _, d := range []int{4, 8, 16} {
		g := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "gpipe", D: d, NMicro: d, BMicro: 32})
		c := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: d, NMicro: d, BMicro: 32})
		if c.ThroughputPipeFisher <= g.ThroughputPipeFisher {
			t.Fatalf("D=%d: Chimera throughput %.0f must beat GPipe %.0f",
				d, c.ThroughputPipeFisher, g.ThroughputPipeFisher)
		}
		if c.Ratio <= g.Ratio {
			t.Fatalf("D=%d: Chimera ratio %.2f must exceed GPipe %.2f (fewer bubbles)",
				d, c.Ratio, g.Ratio)
		}
	}
}

func TestChooseMethodTradeoff(t *testing.T) {
	// §3.3: "Chimera consistently achieves higher throughput than GPipe
	// and 1F1B (due to the smaller T_bubble), but instead the curvature
	// information is updated less frequently" — the trade-off the pipeline
	// method is chosen by, priced on the simulator.
	for _, d := range []int{4, 8, 16} {
		for _, b := range []int{8, 32} {
			g := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "gpipe", D: d, NMicro: d, BMicro: b})
			c := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: d, NMicro: d, BMicro: b})
			if gain := c.ThroughputPipeFisher / g.ThroughputPipeFisher; gain <= 1 {
				t.Fatalf("D=%d B=%d: Chimera throughput gain %.3f should exceed 1", d, b, gain)
			}
			if g.RefreshInterval() > c.RefreshInterval() {
				t.Fatalf("D=%d B=%d: GPipe refreshes every %d steps, Chimera every %d: GPipe must refresh at least as often",
					d, b, g.RefreshInterval(), c.RefreshInterval())
			}
		}
	}
}

func TestRatioTrends(t *testing.T) {
	base := Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 8}
	m8 := eval(t, base)

	// Larger micro-batch size -> smaller ratio ("as B_micro is increased,
	// the ratio becomes smaller because the inversion work is relatively
	// small").
	big := base
	big.BMicro = 64
	m64 := eval(t, big)
	if m64.Ratio >= m8.Ratio {
		t.Fatalf("ratio must fall with BMicro: %.2f (B=8) vs %.2f (B=64)", m8.Ratio, m64.Ratio)
	}

	// Deeper pipeline -> smaller ratio ("as the pipeline depth D
	// increases, the ratio goes down because the bubble increases").
	deep := base
	deep.D, deep.NMicro = 32, 32
	m32 := eval(t, deep)
	if m32.Ratio >= m8.Ratio {
		t.Fatalf("ratio must fall with D: %.2f (D=8) vs %.2f (D=32)", m8.Ratio, m32.Ratio)
	}

	// More micro-batches -> larger ratio ("as N_micro is increased, the
	// ratio increases because the bubbles become smaller").
	many := base
	many.NMicro = 24
	m24 := eval(t, many)
	if m24.Ratio <= m8.Ratio {
		t.Fatalf("ratio must rise with NMicro: %.2f (N=D) vs %.2f (N=3D)", m8.Ratio, m24.Ratio)
	}
}

func TestLongerSequencesLowerRatio(t *testing.T) {
	// "Transformers with longer sequence lengths have larger bubbles and
	// smaller ratios": T5-Base is BERT-Base at S=512.
	bert := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 8})
	t5 := eval(t, Input{Arch: arch.T5Base, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 8})
	if t5.Ratio >= bert.Ratio {
		t.Fatalf("longer sequences must lower the ratio: BERT %.2f vs T5 %.2f", bert.Ratio, t5.Ratio)
	}
}

func TestPreconditionOverheadSmall(t *testing.T) {
	// "Little difference in throughput is observed between Chimera and
	// Chimera w/ PipeFisher" — precondition under ~10% of the step.
	for _, b := range []int{8, 16, 32} {
		m := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: b})
		drop := 1 - m.ThroughputPipeFisher/m.ThroughputVanilla
		if drop < 0 || drop > 0.10 {
			t.Fatalf("B=%d: precondition throughput drop %.3f outside [0, 0.10]", b, drop)
		}
	}
}

func TestPipeFisherBeatsSkipAndNaive(t *testing.T) {
	m := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 64})
	if !(m.ThroughputPipeFisher > m.ThroughputKFACSkip) {
		t.Fatalf("PipeFisher %.0f must beat K-FAC+skip %.0f", m.ThroughputPipeFisher, m.ThroughputKFACSkip)
	}
	if !(m.ThroughputKFACSkip > m.ThroughputKFACNaive) {
		t.Fatalf("K-FAC+skip %.0f must beat naive K-FAC %.0f", m.ThroughputKFACSkip, m.ThroughputKFACNaive)
	}
	// Figure 6: speedup vs skip peaks around 1.1-1.4x.
	sp := m.SpeedupVsSkip()
	if sp < 1.0 || sp > 1.6 {
		t.Fatalf("speedup vs skip %.2f outside [1.0, 1.6]", sp)
	}
}

func TestSpeedupShrinksWithManyMicroBatches(t *testing.T) {
	// "when the number of micro-batches is large (N=3D), speedup by
	// PipeFisher is limited to about 1.1x".
	few := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 64})
	many := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 24, BMicro: 64})
	if many.SpeedupVsSkip() >= few.SpeedupVsSkip() {
		t.Fatalf("speedup must shrink with NMicro: %.3f (N=D) vs %.3f (N=3D)",
			few.SpeedupVsSkip(), many.SpeedupVsSkip())
	}
}

func TestRecomputeTradesThroughputForMemory(t *testing.T) {
	plain := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 16, NMicro: 16, BMicro: 32})
	rec := plain.Input
	rec.Recompute = true
	r := eval(t, rec)
	if r.ThroughputPipeFisher >= plain.ThroughputPipeFisher {
		t.Fatal("recomputation must reduce throughput")
	}
	if r.Memory.Act >= plain.Memory.Act {
		t.Fatal("recomputation must reduce activation memory")
	}
	// "As TBubble is increased by activation recomputation, curvature
	// information is updated at a higher frequency" (smaller ratio).
	if r.Ratio >= plain.Ratio {
		t.Fatalf("recompute must lower the ratio: %.2f vs %.2f", plain.Ratio, r.Ratio)
	}
}

func TestMemoryBreakdownShape(t *testing.T) {
	// Figure 5 bottom: activations and saved errors dominate at large
	// BMicro and NMicro, while curvature memory is constant in both.
	small := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 4, NMicro: 4, BMicro: 8})
	large := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 16, NMicro: 16, BMicro: 32})
	if small.Memory.CurvInv != large.Memory.CurvInv {
		t.Fatal("curvature memory must be independent of BMicro and NMicro")
	}
	if large.Memory.Act <= small.Memory.Act {
		t.Fatal("activation memory must grow with NMicro and BMicro")
	}
	if large.Memory.Act <= large.Memory.CurvInv {
		t.Fatal("activations should dominate curvature at large sizes")
	}
	// Figure 5's D=16, B=32 configuration sits in the multi-GB regime.
	total := large.Memory.Total()
	if total < 2e9 || total > 20e9 {
		t.Fatalf("total memory %.2g bytes outside the paper's regime", total)
	}
}

func TestFasterGPULowersStepTime(t *testing.T) {
	p := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 8, NMicro: 8, BMicro: 32})
	v := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.V100, Method: "chimera", D: 8, NMicro: 8, BMicro: 32})
	r := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.RTX3090, Method: "chimera", D: 8, NMicro: 8, BMicro: 32})
	if v.TStep >= p.TStep {
		t.Fatal("V100 must be faster than P100")
	}
	if r.TStep >= v.TStep {
		t.Fatal("RTX3090 must be faster than V100 on large GEMMs")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Evaluate(Input{Arch: arch.BERTBase, GPU: hardware.P100, D: 0, BMicro: 8}); err == nil {
		t.Fatal("expected error for D=0")
	}
	if _, err := Evaluate(Input{Arch: arch.BERTBase, GPU: hardware.P100, D: 4, BMicro: 0}); err == nil {
		t.Fatal("expected error for BMicro=0")
	}
	if _, err := Evaluate(Input{Arch: arch.BERTBase, GPU: hardware.P100, D: 4, BMicro: 8, Method: "ring"}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestDefaults(t *testing.T) {
	m := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, D: 4, BMicro: 8})
	if m.Input.NMicro != 4 {
		t.Fatalf("NMicro must default to D, got %d", m.Input.NMicro)
	}
	if m.Input.Method != "chimera" {
		t.Fatalf("Method must default to chimera, got %q", m.Input.Method)
	}
	if m.Input.BlocksPerStage != 1 {
		t.Fatalf("BlocksPerStage must default to 1, got %d", m.Input.BlocksPerStage)
	}
}

func TestSweepCoversGrid(t *testing.T) {
	pts, err := Sweep(arch.BERTBase, "chimera", []int{4, 8}, []int{1, 2, 4}, []int{1, 2, 3}, hardware.All())
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 2 * 3 * 3 // gpus * depths * factors * bmicros
	if len(pts) != want {
		t.Fatalf("sweep size %d, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Model.Ratio <= 0 || p.Model.ThroughputPipeFisher <= 0 {
			t.Fatalf("degenerate sweep point %+v", p)
		}
	}
}

func TestFits(t *testing.T) {
	ok := eval(t, Input{Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera", D: 4, NMicro: 4, BMicro: 8})
	if !ok.Fits() {
		t.Fatal("small configuration must fit a P100")
	}
	huge := eval(t, Input{Arch: arch.OPT350M, GPU: hardware.P100, Method: "chimera", D: 32, NMicro: 96, BMicro: 64})
	if huge.Fits() {
		t.Fatal("a 96x64x2048-token configuration cannot fit a 16 GB P100")
	}
}

// Property: ratios are positive and throughput ordering
// vanilla >= PipeFisher > skip > naive holds across random configs.
func TestOrderingProperty(t *testing.T) {
	f := func(dRaw, bRaw, nRaw uint8) bool {
		d := 2 * (1 + int(dRaw%8))
		b := 1 << (bRaw % 7)
		factor := 1 + int(nRaw%3)
		m, err := Evaluate(Input{
			Arch: arch.BERTBase, GPU: hardware.P100, Method: "chimera",
			D: d, NMicro: factor * d, BMicro: b,
		})
		if err != nil {
			return false
		}
		return m.Ratio > 0 &&
			m.ThroughputVanilla >= m.ThroughputPipeFisher &&
			m.ThroughputPipeFisher > m.ThroughputKFACSkip &&
			m.ThroughputKFACSkip >= m.ThroughputKFACNaive &&
			!math.IsNaN(m.Ratio)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
