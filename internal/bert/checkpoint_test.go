package bert

import (
	"bytes"
	"testing"

	"repro/internal/data"
)

func TestCheckpointRoundTrip(t *testing.T) {
	m := tinyModel(t, 50)
	// Train a few steps so the parameters are non-trivial.
	c := tinyCorpus(t, 51)
	pretrain(t, m, c, 5, 4, 0)
	want := m.ParamsChecksum()

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Load into a fresh model with different initialization.
	fresh := tinyModel(t, 99)
	if fresh.ParamsChecksum() == want {
		t.Fatal("fresh model should differ before loading")
	}
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ParamsChecksum(); got != want {
		t.Fatalf("checksum after load %g, want %g", got, want)
	}
	// The loaded model must produce identical losses.
	batch := tinyCorpus(t, 52).MakeBatch(4, data.DefaultBatchConfig(m.Config.SeqLen))
	if l1, l2 := headLoss(t, m, batch), headLoss(t, fresh, batch); l1.Total != l2.Total {
		t.Fatalf("loaded model loss %g != original %g", l2.Total, l1.Total)
	}
}

func TestCheckpointConfigMismatch(t *testing.T) {
	m := tinyModel(t, 60)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := TinyConfig()
	cfg.Blocks = 3
	other, err := New(cfg, 61)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Load(&buf); err == nil {
		t.Fatal("expected error loading into a differently-shaped model")
	}
}

func TestCheckpointGarbageInput(t *testing.T) {
	m := tinyModel(t, 70)
	if err := m.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestLoadFailureLeavesModelIntact(t *testing.T) {
	m := tinyModel(t, 80)
	before := m.ParamsChecksum()
	if err := m.Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected decode error")
	}
	if m.ParamsChecksum() != before {
		t.Fatal("failed load must not modify the model")
	}
}
