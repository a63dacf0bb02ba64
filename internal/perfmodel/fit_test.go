package perfmodel

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
)

func TestMaxMicroBatchBERTLargeP100(t *testing.T) {
	// §4: "the micro-batch size to 32 (maximum number of powers of 2 that
	// can be placed on a P100 GPU)" for BERT-Large with 3 blocks/stage.
	got, err := MaxMicroBatch(arch.BERTLarge, hardware.P100, "chimera", 8, 8, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Our memory model is approximate: accept the paper's 32 within one
	// power of two either way.
	if got < 16 || got > 64 {
		t.Fatalf("max micro-batch %d, paper says 32 (accepting 16-64)", got)
	}
	// It must be a power of two.
	if got&(got-1) != 0 {
		t.Fatalf("%d is not a power of two", got)
	}
}

func TestMaxMicroBatchMonotoneInMemory(t *testing.T) {
	p100, err := MaxMicroBatch(arch.BERTBase, hardware.P100, "chimera", 8, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := MaxMicroBatch(arch.BERTBase, hardware.V100, "chimera", 8, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if v100 < p100 {
		t.Fatalf("32 GB V100 (%d) must fit at least as much as 16 GB P100 (%d)", v100, p100)
	}
}

func TestMaxMicroBatchRecomputeFitsMore(t *testing.T) {
	plain, err := MaxMicroBatch(arch.OPT350M, hardware.P100, "chimera", 8, 24, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := MaxMicroBatch(arch.OPT350M, hardware.P100, "chimera", 8, 24, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec < plain {
		t.Fatalf("recomputation (%d) must fit at least as much as without (%d)", rec, plain)
	}
}

func TestMaxMicroBatchTooBigErrors(t *testing.T) {
	// OPT-350M blocks at S=2048 with 32 retained micro-batches and 8
	// blocks per stage cannot fit a 16 GB card even at B = 1.
	if _, err := MaxMicroBatch(arch.OPT350M, hardware.P100, "chimera", 32, 96, 8, false); err == nil {
		t.Fatal("expected error for an impossible configuration")
	}
}

func TestRefreshInterval(t *testing.T) {
	m := &Model{Ratio: 2.3}
	if got := m.RefreshInterval(); got != 3 {
		t.Fatalf("RefreshInterval(2.3) = %d, want 3", got)
	}
	m.Ratio = 4.0
	if got := m.RefreshInterval(); got != 4 {
		t.Fatalf("RefreshInterval(4.0) = %d, want 4", got)
	}
	m.Ratio = 0.2
	if got := m.RefreshInterval(); got != 1 {
		t.Fatalf("RefreshInterval(0.2) = %d, want 1", got)
	}
}
