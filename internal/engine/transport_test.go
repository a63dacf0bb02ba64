package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/gpt"
	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// rankResult carries one ring rank's step outputs back to the test body for
// cross-rank and against-reference comparison.
type rankResult struct {
	loss  float64
	grads []*tensor.Matrix
	bytes int64
	tl    *pipeline.Timeline
	err   error
}

// runRingRanks spins up a 2-rank local Unix-socket ring and runs fn once per
// rank, concurrently — engine construction must overlap across ranks because
// the initial parameter broadcast is itself a collective. The rings are
// closed after both ranks return.
func runRingRanks(t *testing.T, chunkFloats int, fn func(rank int, g transport.Group) rankResult) [2]rankResult {
	t.Helper()
	rings, err := transport.NewLocalRing(2, chunkFloats)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, r := range rings {
			r.Close()
		}
	}()
	var out [2]rankResult
	var wg sync.WaitGroup
	for rank := range rings {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			out[rank] = fn(rank, rings[rank])
		}(rank)
	}
	wg.Wait()
	return out
}

// newRankBERT builds a fresh BERT model and batch with the same seeds as
// newModelAndCorpus — every rank of a group must materialize the global batch
// independently, exactly as a separate process would.
func newRankBERT(t *testing.T, batchSize int) (*bert.Model, *data.Batch) {
	t.Helper()
	m, err := bert.New(bert.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	c, err := data.NewCorpus(bert.TinyConfig().VocabSize, 1.0, 321)
	if err != nil {
		t.Fatal(err)
	}
	return m, c.MakeBatch(batchSize, data.DefaultBatchConfig(m.Config.SeqLen))
}

func requireRankGradsBitEqual(t *testing.T, got []*tensor.Matrix, ref []*tensor.Matrix, context string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d gradients, want %d", context, len(got), len(ref))
	}
	for i := range got {
		if !got[i].Equal(ref[i]) {
			t.Fatalf("%s: gradient %d not bit-identical (max diff %g)",
				context, i, got[i].Sub(ref[i]).MaxAbs())
		}
	}
}

// The tentpole wire-parity property: a 2-process-style ring group (one
// replica per rank, real sockets, chunked chain all-reduce) produces
// gradients and losses bit-identical to the in-process W = 2 loopback run of
// the same global batch, for every schedule. The per-micro fold parts cross
// the wire unreduced, so the reduction's addition chain — ascending global
// micro-batch order — is literally the same sequence of float64 adds.
func TestRingEngineBitIdenticalToLoopback(t *testing.T) {
	for _, method := range []string{"gpipe", "1f1b", "chimera"} {
		// Loopback reference: W = 2 in-process replicas, 4 global micros.
		m, c := newModelAndCorpus(t)
		batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
		params := m.Params()
		eRef, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		resRef, err := eRef.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s loopback: %v", method, err)
		}
		ref := cloneGrads(params)

		// Ring: 2 ranks x 1 replica x 2 micros = the same 4 global micros.
		// Small chunk size so every fold actually exercises chunking.
		out := runRingRanks(t, 512, func(rank int, g transport.Group) rankResult {
			mr, br := newRankBERT(t, 8)
			er, err := NewWithConfig(mr, Config{Method: method, Stages: 2, MicroBatches: 2, Transport: g})
			if err != nil {
				return rankResult{err: err}
			}
			nn.ZeroGrads(mr.Params())
			res, err := er.TrainStep(br)
			if err != nil {
				return rankResult{err: err}
			}
			return rankResult{loss: res.Loss.Total, grads: cloneGrads(mr.Params()), bytes: g.BytesOnWire(), tl: er.LastTimeline()}
		})
		for rank, r := range out {
			if r.err != nil {
				t.Fatalf("%s rank %d: %v", method, rank, r.err)
			}
			if r.loss != resRef.Loss.Total {
				t.Fatalf("%s rank %d: loss %.17g != loopback %.17g", method, rank, r.loss, resRef.Loss.Total)
			}
			requireRankGradsBitEqual(t, r.grads, ref, method+" ring rank vs loopback")
			if r.bytes == 0 {
				t.Fatalf("%s rank %d: ring transport reports 0 bytes on wire", method, rank)
			}
		}

		// With one local replica the fold lands at the rank's optimizer
		// anchor; the executed timeline must attribute the wire bytes there.
		var wired int64
		for d := 0; d < out[0].tl.Devices; d++ {
			for _, ev := range out[0].tl.Events[d] {
				wired += ev.Bytes
			}
		}
		if wired == 0 {
			t.Fatalf("%s: executed ring timeline attributes no bytes on wire", method)
		}
		if wired > out[0].bytes {
			t.Fatalf("%s: timeline attributes %d wire bytes, more than the transport total %d", method, wired, out[0].bytes)
		}
	}
}

func TestRingEngineBitIdenticalToLoopbackGPT(t *testing.T) {
	newRank := func() (*gpt.Model, *data.Batch) {
		m, err := gpt.New(gpt.TinyConfig(), 99)
		if err != nil {
			t.Fatal(err)
		}
		c, err := data.NewCorpus(gpt.TinyConfig().VocabSize, 1.0, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m, gpt.MakeBatch(c, 8, m.Config.SeqLen)
	}
	for _, method := range []string{"gpipe", "1f1b"} {
		m, batch := newRank()
		params := m.Params()
		eRef, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(params)
		resRef, err := eRef.TrainStep(batch)
		if err != nil {
			t.Fatalf("%s loopback: %v", method, err)
		}
		ref := cloneGrads(params)

		out := runRingRanks(t, transport.DefaultChunkFloats, func(rank int, g transport.Group) rankResult {
			mr, br := newRank()
			er, err := NewWithConfig(mr, Config{Method: method, Stages: 2, MicroBatches: 2, Transport: g})
			if err != nil {
				return rankResult{err: err}
			}
			nn.ZeroGrads(mr.Params())
			res, err := er.TrainStep(br)
			if err != nil {
				return rankResult{err: err}
			}
			return rankResult{loss: res.Loss.Total, grads: cloneGrads(mr.Params())}
		})
		for rank, r := range out {
			if r.err != nil {
				t.Fatalf("%s rank %d: %v", method, rank, r.err)
			}
			if r.loss != resRef.Loss.Total {
				t.Fatalf("%s rank %d: loss %.17g != loopback %.17g", method, rank, r.loss, resRef.Loss.Total)
			}
			requireRankGradsBitEqual(t, r.grads, ref, "gpt "+method+" ring rank vs loopback")
		}
	}
}

// K-FAC factor folds also cross the wire as unreduced per-micro Gram
// partials, so preconditioned gradients stay bit-identical between a ring
// group and the in-process W = 2 run.
func TestRingEngineKFACBitIdentity(t *testing.T) {
	opts := kfac.Options{Damping: 1e-2, StatDecay: 0.9, UsePiDamping: true}

	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()
	eRef, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eRef.EnableKFAC(opts, 1); err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	resRef, err := eRef.TrainStep(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !resRef.Refreshed {
		t.Fatal("first K-FAC step must refresh")
	}
	ref := cloneGrads(params)

	out := runRingRanks(t, 256, func(rank int, g transport.Group) rankResult {
		mr, br := newRankBERT(t, 8)
		er, err := NewWithConfig(mr, Config{Method: "gpipe", Stages: 2, MicroBatches: 2, Transport: g})
		if err != nil {
			return rankResult{err: err}
		}
		if err := er.EnableKFAC(opts, 1); err != nil {
			return rankResult{err: err}
		}
		nn.ZeroGrads(mr.Params())
		res, err := er.TrainStep(br)
		if err != nil {
			return rankResult{err: err}
		}
		return rankResult{loss: res.Loss.Total, grads: cloneGrads(mr.Params()), bytes: g.BytesOnWire()}
	})
	for rank, r := range out {
		if r.err != nil {
			t.Fatalf("rank %d: %v", rank, r.err)
		}
		if r.loss != resRef.Loss.Total {
			t.Fatalf("rank %d: loss %.17g != loopback %.17g", rank, r.loss, resRef.Loss.Total)
		}
		requireRankGradsBitEqual(t, r.grads, ref, "kfac ring rank vs loopback")
		if r.bytes == 0 {
			t.Fatalf("rank %d: K-FAC ring run reports 0 bytes on wire", rank)
		}
	}
}

// In-process replicas compose with the wire transport: ring ranks running
// 2 local replicas each — module sets aliasing the rank's one parameter
// copy — reproduce the in-process W = 4 reference bit for bit, under every
// schedule family (Chimera adding each replica's up set).
func TestRingLocalReplicasBitIdentity(t *testing.T) {
	for _, method := range pipeline.Methods() {
		t.Run(method, func(t *testing.T) {
			m, c := newModelAndCorpus(t)
			batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
			params := m.Params()
			eRef, err := NewWithConfig(m, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 4})
			if err != nil {
				t.Fatal(err)
			}
			nn.ZeroGrads(params)
			resRef, err := eRef.TrainStep(batch)
			if err != nil {
				t.Fatal(err)
			}
			ref := cloneGrads(params)

			out := runRingRanks(t, 512, func(rank int, g transport.Group) rankResult {
				mr, br := newRankBERT(t, 8)
				er, err := NewWithConfig(mr, Config{Method: method, Stages: 2, MicroBatches: 2, Replicas: 2, Transport: g})
				if err != nil {
					return rankResult{err: err}
				}
				nn.ZeroGrads(mr.Params())
				res, err := er.TrainStep(br)
				if err != nil {
					return rankResult{err: err}
				}
				return rankResult{loss: res.Loss.Total, grads: cloneGrads(mr.Params())}
			})
			for rank, r := range out {
				if r.err != nil {
					t.Fatalf("rank %d: %v", rank, r.err)
				}
				if r.loss != resRef.Loss.Total {
					t.Fatalf("rank %d: loss %.17g != loopback W=4 %.17g", rank, r.loss, resRef.Loss.Total)
				}
				requireRankGradsBitEqual(t, r.grads, ref, "ring rank of 2 local replicas vs loopback W=4")
			}
		})
	}
}

// A dropped gradient collective on a ring rank is a base-path failure: the
// round aborts on the injured rank, the transport abort unblocks any peer
// mid-collective, both ranks restore the round checkpoint, and the replay
// reproduces the fault-free loopback reference bit for bit.
func TestRingEngineFaultAbortAndReplay(t *testing.T) {
	// Fault-free reference: in-process W = 4 (2 ranks x 2 local replicas).
	m, c := newModelAndCorpus(t)
	batch := c.MakeBatch(8, data.DefaultBatchConfig(m.Config.SeqLen))
	params := m.Params()
	eRef, err := NewWithConfig(m, Config{Method: "gpipe", Stages: 2, MicroBatches: 1, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(params)
	if _, err := eRef.TrainStep(batch); err != nil {
		t.Fatal(err)
	}
	ref := cloneGrads(params)

	out := runRingRanks(t, transport.DefaultChunkFloats, func(rank int, g transport.Group) rankResult {
		mr, br := newRankBERT(t, 8)
		// Two local replicas so sync-grad ops exist for the drop to hit.
		// Every rank runs the identical plan — the symmetry the multi-rank
		// fault contract requires.
		er, err := NewWithConfig(mr, Config{
			Method: "gpipe", Stages: 2, MicroBatches: 1, Replicas: 2,
			Transport: g, Checkpoint: true,
			FaultPlan: mustParsePlan(t, "drop:op=sync-grad,count=1"),
		})
		if err != nil {
			return rankResult{err: err}
		}
		nn.ZeroGrads(mr.Params())
		batches := []*data.Batch{br}
		// Fault-tolerant driver loop: aborts are not rank-symmetric in time
		// (one rank's drop may fire while a peer is elsewhere, and the
		// attributed abort can itself fail an attempt before that peer's own
		// drop was consumed), so each rank retries restore+replay until the
		// round commits. The transport epochs re-align because every attempt
		// advances them in lockstep with the peer's.
		aborts := 0
		for {
			if _, err := er.TrainRound(batches); err == nil {
				break
			}
			aborts++
			if aborts > 8 {
				return rankResult{err: errors.New("round would not commit after 8 replays")}
			}
			if _, err := er.RestoreCheckpoint(); err != nil {
				return rankResult{err: err}
			}
		}
		if aborts == 0 {
			return rankResult{err: errors.New("dropped collective committed anyway")}
		}
		return rankResult{grads: cloneGrads(mr.Params())}
	})
	for rank, r := range out {
		if r.err != nil {
			t.Fatalf("rank %d: %v", rank, r.err)
		}
		requireRankGradsBitEqual(t, r.grads, ref, "post-replay ring rank vs fault-free loopback")
	}
}
