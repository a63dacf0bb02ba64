package hardware

import (
	"testing"
	"testing/quick"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"P100", "V100", "RTX3090"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, g.Name)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Fatal("expected error for unknown GPU")
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	if len(all) != 3 || all[0].Name != "P100" || all[1].Name != "V100" || all[2].Name != "RTX3090" {
		t.Fatalf("All() wrong: %v", all)
	}
}

func TestTimeComputeBound(t *testing.T) {
	// A huge GEMM is compute bound: time ≈ flops / (peak * eff).
	g := P100
	op := Op{FLOPs: 1e12, Bytes: 1e6, Kernels: 1, GEMMLike: true}
	got := g.Time(op)
	want := Microseconds(1e12 / (g.PeakFLOPs * g.GemmEfficiency) * 1e6)
	if diff := got - want - g.KernelOverhead; diff < -1 || diff > 1 {
		t.Fatalf("compute-bound time: got %d, want about %d", got, want+g.KernelOverhead)
	}
}

func TestTimeMemoryBound(t *testing.T) {
	// A pure copy is memory bound: time ≈ bytes / bandwidth.
	g := V100
	op := Op{FLOPs: 1, Bytes: 9e8, Kernels: 1}
	got := g.Time(op)
	want := Microseconds(9e8/g.MemBandwidth*1e6) + g.KernelOverhead
	if diff := got - want; diff < -1 || diff > 1 {
		t.Fatalf("memory-bound time: got %d, want about %d", got, want)
	}
}

func TestTimeMinimumOneMicrosecond(t *testing.T) {
	g := RTX3090
	if got := g.Time(Op{FLOPs: 1, Bytes: 1, Kernels: 0}); got < 1 {
		t.Fatalf("Time must be at least 1us, got %d", got)
	}
}

func TestFasterGPUIsFaster(t *testing.T) {
	op := Op{FLOPs: 1e12, Bytes: 1e8, Kernels: 1, GEMMLike: true}
	tP, tV, tR := P100.Time(op), V100.Time(op), RTX3090.Time(op)
	if !(tR < tV && tV < tP) {
		t.Fatalf("expected RTX3090 < V100 < P100 on a big GEMM, got %d %d %d", tP, tV, tR)
	}
}

func TestAllReduceTime(t *testing.T) {
	ic := DefaultInterconnect
	if got := ic.AllReduceTime(1e9, 1); got != 0 {
		t.Fatalf("single participant all-reduce must be free, got %d", got)
	}
	t2 := ic.AllReduceTime(1e9, 2)
	t8 := ic.AllReduceTime(1e9, 8)
	if t2 <= 0 || t8 <= t2 {
		t.Fatalf("all-reduce times not monotone: n=2 %d, n=8 %d", t2, t8)
	}
}

// The chunked chain all-reduce must demonstrably pipeline: at gradient
// bucket scale the chunked form (transport default: 64 KiB chunks) beats
// the single-message chain by at least 1.3x for every ring size, and the
// advantage grows with the payload (more chunks to overlap) until per-chunk
// latency takes over. Wall-clock confirmation needs a multi-core host
// (BenchmarkAllReduce); this pins the model the scheduler prices
// transports with.
func TestChainAllReduceChunkingPipelines(t *testing.T) {
	ic := DefaultInterconnect
	const chunkBytes = 8192 * 8 // transport.DefaultChunkFloats float64s
	for _, ranks := range []int{2, 4, 8} {
		for _, mb := range []int64{1, 4, 16} {
			bytes := mb << 20
			chunks := int(bytes / chunkBytes)
			chunked := ChainAllReduceCost(bytes, ranks, chunks, ic)
			single := ChainAllReduceCost(bytes, ranks, 1, ic)
			if chunked <= 0 || single <= 0 {
				t.Fatalf("W=%d %dMiB: non-positive cost (chunked %d, single %d)", ranks, mb, chunked, single)
			}
			if ratio := float64(single) / float64(chunked); ratio < 1.3 {
				t.Fatalf("W=%d %dMiB: chunked %dus vs single-message %dus — only %.2fx, want >= 1.3x",
					ranks, mb, chunked, single, ratio)
			}
		}
	}
	// Degenerate inputs stay sane: one rank or nothing to send costs nothing.
	if got := ChainAllReduceCost(1<<20, 1, 16, ic); got != 0 {
		t.Fatalf("single-rank all-reduce must be free, got %d", got)
	}
	if got := ChainAllReduceCost(0, 4, 16, ic); got != 0 {
		t.Fatalf("empty all-reduce must be free, got %d", got)
	}
}

// Property: time is monotone in FLOPs and bytes.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(flopsExp, bytesExp uint8) bool {
		f1 := float64(uint64(1) << (flopsExp % 40))
		b1 := float64(uint64(1) << (bytesExp % 30))
		op1 := Op{FLOPs: f1, Bytes: b1, Kernels: 1, GEMMLike: true}
		op2 := Op{FLOPs: f1 * 2, Bytes: b1 * 2, Kernels: 1, GEMMLike: true}
		return P100.Time(op2) >= P100.Time(op1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
