package transport

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// refFold computes the contract's reference result on one rank: base (or
// zeros), then every rank's parts folded in ascending (rank, part) order.
func refFold(n int, base []float64, partsByRank [][][]float64) []float64 {
	out := make([]float64, n)
	if base != nil {
		copy(out, base)
	}
	for _, parts := range partsByRank {
		for _, p := range parts {
			for i, v := range p {
				out[i] += v
			}
		}
	}
	return out
}

// fill produces a deterministic, addition-order-sensitive test vector.
func fill(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		// Mix magnitudes so float addition order matters: bit-identity
		// tests would pass vacuously on uniform values.
		v[i] = seed + float64(i)*1.25e-7 + math.Mod(seed*float64(i+1), 3.0)*1e3
	}
	return v
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func closeAll(t *testing.T, rings []*Ring) {
	t.Helper()
	for _, r := range rings {
		if err := r.Close(); err != nil {
			t.Errorf("close rank %d: %v", r.Rank(), err)
		}
	}
}

func TestShardRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1023, 4096} {
		for _, size := range []int{1, 2, 3, 4, 7} {
			prev := 0
			total := 0
			for rank := 0; rank < size; rank++ {
				lo, hi := ShardRange(n, rank, size)
				if lo != prev {
					t.Fatalf("n=%d size=%d rank=%d: lo=%d, want %d (gap/overlap)", n, size, rank, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d size=%d rank=%d: hi=%d < lo=%d", n, size, rank, hi, lo)
				}
				if d := hi - lo; d != n/size && d != n/size+1 {
					t.Fatalf("n=%d size=%d rank=%d: shard size %d, want %d or %d", n, size, rank, d, n/size, n/size+1)
				}
				prev = hi
				total += hi - lo
			}
			if prev != n || total != n {
				t.Fatalf("n=%d size=%d: shards cover %d elements ending at %d", n, size, total, prev)
			}
		}
	}
}

func TestLoopbackAllReduceMatchesReference(t *testing.T) {
	n := 1023
	base := fill(n, 0.5)
	parts := [][]float64{fill(n, 1.0), fill(n, 2.0), fill(n, 3.0)}
	want := refFold(n, base, [][][]float64{parts})
	dst := make([]float64, n)
	lb := Loopback{}
	if _, err := lb.AllReduce("g", dst, base, parts); err != nil {
		t.Fatal(err)
	}
	if !bitEqual(dst, want) {
		t.Fatal("loopback all-reduce != reference fold")
	}
	// nil base means zeros.
	want0 := refFold(n, nil, [][][]float64{parts})
	if _, err := lb.AllReduce("g", dst, nil, parts); err != nil {
		t.Fatal(err)
	}
	if !bitEqual(dst, want0) {
		t.Fatal("loopback all-reduce with nil base != zero-based fold")
	}
	if _, err := lb.AllReduce("g", dst, base[:n-1], parts); err == nil {
		t.Fatal("short base accepted")
	}
	if _, err := lb.AllReduce("g", dst, base, [][]float64{parts[0][:n-1]}); err == nil {
		t.Fatal("short part accepted")
	}
}

// runRingCollective runs fn concurrently on every rank of a fresh local
// ring and fails the test on any error.
func runRingCollective(t *testing.T, size, chunk int, fn func(r *Ring) error) {
	t.Helper()
	rings, err := NewLocalRing(size, chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for i, r := range rings {
		wg.Add(1)
		go func(i int, r *Ring) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestRingAllReduceBitIdenticalToLoopback(t *testing.T) {
	for _, size := range []int{2, 3, 4} {
		for _, n := range []int{1, 3, 1023, 4097} {
			for _, chunk := range []int{1, 7, 1024, 1 << 20} {
				if chunk == 1 && n > 1100 {
					continue // 4097 one-float frames per link is just slow
				}
				t.Run(fmt.Sprintf("W%d_n%d_c%d", size, n, chunk), func(t *testing.T) {
					base := fill(n, 0.25)
					partsByRank := make([][][]float64, size)
					for r := 0; r < size; r++ {
						partsByRank[r] = [][]float64{fill(n, float64(r)+1.0), fill(n, float64(r)+1.5)}
					}
					want := refFold(n, base, partsByRank)
					dsts := make([][]float64, size)
					runRingCollective(t, size, chunk, func(r *Ring) error {
						dst := make([]float64, n)
						b := base
						if r.Rank() != 0 {
							b = fill(n, 99.0) // base must be ignored off rank 0
						}
						if _, err := r.AllReduce("g", dst, b, partsByRank[r.Rank()]); err != nil {
							return err
						}
						dsts[r.Rank()] = dst
						return nil
					})
					for rk, dst := range dsts {
						if !bitEqual(dst, want) {
							t.Fatalf("rank %d all-reduce differs from reference fold", rk)
						}
					}
				})
			}
		}
	}
}

func TestRingReduceScatterDeliversShard(t *testing.T) {
	size, n, chunk := 3, 1007, 64
	partsByRank := make([][][]float64, size)
	for r := 0; r < size; r++ {
		partsByRank[r] = [][]float64{fill(n, float64(r)*2.0)}
	}
	want := refFold(n, nil, partsByRank)
	runRingCollective(t, size, chunk, func(r *Ring) error {
		dst := make([]float64, n)
		if _, err := r.ReduceScatter("rs", dst, nil, partsByRank[r.Rank()]); err != nil {
			return err
		}
		lo, hi := ShardRange(n, r.Rank(), r.Size())
		if !bitEqual(dst[lo:hi], want[lo:hi]) {
			return fmt.Errorf("shard [%d,%d) differs from reference fold", lo, hi)
		}
		return nil
	})
}

func TestRingAllGather(t *testing.T) {
	for _, size := range []int{2, 3, 4} {
		for _, n := range []int{5, 1023, 4097} {
			t.Run(fmt.Sprintf("W%d_n%d", size, n), func(t *testing.T) {
				full := fill(n, 7.0)
				runRingCollective(t, size, 100, func(r *Ring) error {
					buf := make([]float64, n)
					lo, hi := ShardRange(n, r.Rank(), r.Size())
					copy(buf[lo:hi], full[lo:hi])
					if _, err := r.AllGather("ag", buf); err != nil {
						return err
					}
					if !bitEqual(buf, full) {
						return errors.New("all-gather did not reassemble the full buffer")
					}
					return nil
				})
			})
		}
	}
}

func TestRingBroadcast(t *testing.T) {
	size, n := 3, 2049
	for root := 0; root < size; root++ {
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			want := fill(n, float64(root)+0.125)
			runRingCollective(t, size, 300, func(r *Ring) error {
				buf := make([]float64, n)
				if r.Rank() == root {
					copy(buf, want)
				}
				if _, err := r.Broadcast("b", root, buf); err != nil {
					return err
				}
				if !bitEqual(buf, want) {
					return errors.New("broadcast result differs from root's buffer")
				}
				return nil
			})
		})
	}
}

// TestRingConcurrentNames runs several differently-named collectives at
// once per rank — the shape of the engine folding multiple pipeline stages
// in parallel. Run under -race this also exercises the demux paths.
func TestRingConcurrentNames(t *testing.T) {
	const size, n, names = 3, 513, 6
	partsByName := make([][][][]float64, names) // name -> rank -> parts
	wants := make([][]float64, names)
	for k := 0; k < names; k++ {
		partsByName[k] = make([][][]float64, size)
		for r := 0; r < size; r++ {
			partsByName[k][r] = [][]float64{fill(n, float64(k*10+r))}
		}
		wants[k] = refFold(n, nil, partsByName[k])
	}
	runRingCollective(t, size, 128, func(r *Ring) error {
		var wg sync.WaitGroup
		errs := make([]error, names)
		for k := 0; k < names; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				dst := make([]float64, n)
				if _, err := r.AllReduce(fmt.Sprintf("name/%d", k), dst, nil, partsByName[k][r.Rank()]); err != nil {
					errs[k] = err
					return
				}
				if !bitEqual(dst, wants[k]) {
					errs[k] = fmt.Errorf("name %d result differs from reference", k)
				}
			}(k)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}

// TestRingSameNameSequential reuses one collective name across sequential
// steps, the engine's per-parameter naming pattern across training steps.
func TestRingSameNameSequential(t *testing.T) {
	const size, n, steps = 2, 257, 5
	runRingCollective(t, size, 64, func(r *Ring) error {
		for s := 0; s < steps; s++ {
			parts := [][]float64{fill(n, float64(s)+float64(r.Rank())*0.5)}
			all := make([][][]float64, size)
			for rk := 0; rk < size; rk++ {
				all[rk] = [][]float64{fill(n, float64(s)+float64(rk)*0.5)}
			}
			want := refFold(n, nil, all)
			dst := make([]float64, n)
			if _, err := r.AllReduce("g", dst, nil, parts); err != nil {
				return fmt.Errorf("step %d: %w", s, err)
			}
			if !bitEqual(dst, want) {
				return fmt.Errorf("step %d: result differs from reference", s)
			}
		}
		return nil
	})
}

func TestRingAbortUnblocksPeers(t *testing.T) {
	rings, err := NewLocalRing(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	for _, r := range rings {
		r.BeginRound()
	}
	// Rank 1 blocks in a collective rank 0 never joins; rank 0 aborts.
	done := make(chan error, 1)
	go func() {
		dst := make([]float64, 100)
		_, err := rings[1].AllReduce("g", dst, nil, [][]float64{make([]float64, 100)})
		done <- err
	}()
	rings[0].Abort(errors.New("injected fault"))
	if err := <-done; err == nil {
		t.Fatal("blocked collective survived a peer abort")
	} else if want := "injected fault"; !contains(err.Error(), want) {
		t.Fatalf("abort reason not attributed: %v", err)
	}
	// Local collectives on the aborting rank fail fast too.
	if _, err := rings[0].AllReduce("g", make([]float64, 4), nil, nil); err == nil {
		t.Fatal("collective on aborted rank succeeded")
	}
	// BeginRound on every rank clears the abort; collectives work again and
	// stale frames from the aborted epoch don't corrupt the new round.
	for _, r := range rings {
		r.BeginRound()
	}
	parts := [][][]float64{{fill(100, 1.0)}, {fill(100, 2.0)}}
	want := refFold(100, nil, parts)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	dsts := make([][]float64, 2)
	for i, r := range rings {
		wg.Add(1)
		go func(i int, r *Ring) {
			defer wg.Done()
			dsts[i] = make([]float64, 100)
			_, errs[i] = r.AllReduce("g", dsts[i], nil, parts[i])
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after replay: %v", i, err)
		}
		if !bitEqual(dsts[i], want) {
			t.Fatalf("rank %d replay result differs from reference", i)
		}
	}
}

func TestRingCloseFailsBlockedCollective(t *testing.T) {
	rings, err := NewLocalRing(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		dst := make([]float64, 10)
		_, err := rings[1].AllReduce("g", dst, nil, [][]float64{make([]float64, 10)})
		done <- err
	}()
	rings[0].Close()
	if err := <-done; err == nil {
		t.Fatal("blocked collective survived peer connection loss")
	}
	rings[1].Close()
}

func TestRingBytesOnWire(t *testing.T) {
	const n = 1000
	var counts [2]int64
	runRingCollective(t, 2, 100, func(r *Ring) error {
		dst := make([]float64, n)
		nb, err := r.AllReduce("g", dst, nil, [][]float64{fill(n, 1.0)})
		if err != nil {
			return err
		}
		counts[r.Rank()] = nb
		if r.BytesOnWire() < nb {
			return fmt.Errorf("BytesOnWire %d < collective's reported %d", r.BytesOnWire(), nb)
		}
		return nil
	})
	// Every rank both reduces and distributes n floats: payload alone is
	// 8n bytes per rank, plus framing.
	for rk, c := range counts {
		if c < 8*n {
			t.Fatalf("rank %d reported %d bytes on wire, want >= %d", rk, c, 8*n)
		}
	}
}

func TestDialRingValidation(t *testing.T) {
	if _, err := DialRing([]string{"unix:/tmp/x"}, 0, RingOptions{}); err == nil {
		t.Fatal("single-rank ring accepted")
	}
	if _, err := DialRing([]string{"unix:/tmp/a", "unix:/tmp/b"}, 2, RingOptions{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, _, err := splitAddr("bogus"); err == nil {
		t.Fatal("unprefixed address accepted")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRingAllReduceBatchMatchesSeparateCalls is the batch's contract: every
// Dst, and the bytes each rank reports, equal those of one AllReduce call
// per reduction — for mixed sizes (empty and multi-chunk included), with and
// without a base, at every ring width.
func TestRingAllReduceBatchMatchesSeparateCalls(t *testing.T) {
	sizes := []int{0, 1, 5, 300, 1023, 64}
	for _, size := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("W%d", size), func(t *testing.T) {
			mk := func(rank int) []Reduction {
				rs := make([]Reduction, len(sizes))
				for k, n := range sizes {
					rs[k] = Reduction{Name: fmt.Sprintf("g/%d", k), Dst: make([]float64, n),
						Parts: [][]float64{fill(n, float64(rank)+1.0), fill(n, float64(rank*k)+1.5)}}
					if k%2 == 0 {
						rs[k].Base = fill(n, 0.25+float64(k))
					}
				}
				return rs
			}
			var separate, batched [4][]Reduction
			var sepBytes, batchBytes [4]int64
			runRingCollective(t, size, 256, func(r *Ring) error {
				rs := mk(r.Rank())
				for k := range rs {
					nb, err := r.AllReduce(rs[k].Name, rs[k].Dst, rs[k].Base, rs[k].Parts)
					if err != nil {
						return err
					}
					sepBytes[r.Rank()] += nb
				}
				separate[r.Rank()] = rs
				return nil
			})
			runRingCollective(t, size, 256, func(r *Ring) error {
				rs := mk(r.Rank())
				nb, err := AllReduceBatch(r, rs)
				batched[r.Rank()], batchBytes[r.Rank()] = rs, nb
				return err
			})
			for rk := 0; rk < size; rk++ {
				for k := range sizes {
					if !bitEqual(batched[rk][k].Dst, separate[rk][k].Dst) {
						t.Fatalf("rank %d reduction %d: batch differs from a separate AllReduce", rk, k)
					}
				}
				if batchBytes[rk] != sepBytes[rk] {
					t.Fatalf("rank %d: batch put %d bytes on the wire, separate calls %d", rk, batchBytes[rk], sepBytes[rk])
				}
			}
		})
	}
}

// TestAllReduceBatchFallsBackToAllReduce: a group without AllReduceBatch
// gets one AllReduce per reduction, in order.
func TestAllReduceBatchFallsBackToAllReduce(t *testing.T) {
	rs := []Reduction{
		{Name: "a", Dst: make([]float64, 3), Base: fill(3, 0.5), Parts: [][]float64{fill(3, 1), fill(3, 2)}},
		{Name: "b", Dst: make([]float64, 2), Parts: [][]float64{fill(2, 3)}},
	}
	if _, err := AllReduceBatch(Loopback{}, rs); err != nil {
		t.Fatal(err)
	}
	if want := refFold(3, rs[0].Base, [][][]float64{rs[0].Parts}); !bitEqual(rs[0].Dst, want) {
		t.Fatal("reduction a differs from the reference fold")
	}
	if want := refFold(2, nil, [][][]float64{rs[1].Parts}); !bitEqual(rs[1].Dst, want) {
		t.Fatal("reduction b differs from the reference fold")
	}
	rs[1].Parts[0] = fill(5, 1) // wrong length: the error names the reduction
	if _, err := AllReduceBatch(Loopback{}, rs); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("got %v, want an error naming reduction b", err)
	}
}

// TestRingAllReduceBatchAbortUnblocks: a rank waiting inside a batch whose
// peer never joins fails with the abort, like a single AllReduce.
func TestRingAllReduceBatchAbortUnblocks(t *testing.T) {
	rings, err := NewLocalRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	for _, r := range rings {
		r.BeginRound() // an abort poisons round epochs only
	}
	done := make(chan error, 1)
	go func() {
		rs := []Reduction{
			{Name: "x", Dst: make([]float64, 4), Parts: [][]float64{fill(4, 1)}},
			{Name: "y", Dst: make([]float64, 4), Parts: [][]float64{fill(4, 2)}},
		}
		_, err := rings[0].AllReduceBatch(rs)
		done <- err
	}()
	rings[1].Abort(errors.New("peer gave up"))
	if err := <-done; err == nil || !strings.Contains(err.Error(), "peer gave up") {
		t.Fatalf("got %v, want the peer's abort", err)
	}
}

// TestPayloadPoolSizeClasses: payloads are pooled by power-of-two capacity,
// so a frame never gets a recycled buffer of another size. (Capacities, not
// addresses: under the race detector sync.Pool drops Puts at random.)
func TestPayloadPoolSizeClasses(t *testing.T) {
	rings, err := NewLocalRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, rings)
	r := rings[0]
	if p := r.getPayload(0); p != nil {
		t.Fatalf("empty payload %v, want nil", p)
	}
	big, small := r.getPayload(1000), r.getPayload(3)
	if len(big) != 1000 || cap(big) != 1024 || len(small) != 3 || cap(small) != 4 {
		t.Fatalf("got len/cap %d/%d and %d/%d, want 1000/1024 and 3/4", len(big), cap(big), len(small), cap(small))
	}
	r.putPayload(big)
	r.putPayload(small)
	for _, c := range []struct{ n, wantCap int }{{600, 1024}, {4, 4}, {5, 8}, {1024, 1024}, {1025, 2048}} {
		if got := r.getPayload(c.n); len(got) != c.n || cap(got) != c.wantCap {
			t.Fatalf("getPayload(%d): len/cap %d/%d, want %d/%d", c.n, len(got), cap(got), c.n, c.wantCap)
		}
	}
}
