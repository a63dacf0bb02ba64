package main

import (
	"sync"
	"time"

	"repro/internal/kfac"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// probeSeed seeds the probe inputs: probes measure kernels at the
// workload's shapes, not on its data, so their inputs need not follow
// -seed.
const probeSeed = 20230604

// timeMedian calls f until it has run at least minReps times and for at
// least budget in total, and returns the median call time in ms.
func timeMedian(f func(), minReps int, budget time.Duration) float64 {
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		f()
		samples = append(samples, float64(time.Since(t0))/float64(time.Millisecond))
		if len(samples) >= 1000 {
			break
		}
	}
	return median(samples)
}

// probe runs the shape-matched layer probes — public functions of tensor,
// nn, kfac and transport at this workload's sizes — and closes the ladder
// with nn.block_share.
func probe(res *runResult, w *workload, quick bool) {
	minReps, budget := 7, 40*time.Millisecond
	if quick {
		minReps, budget = 2, 0
	}
	tm := func(f func()) float64 { return timeMedian(f, minReps, budget) }

	rng := tensor.NewRNG(probeSeed)
	d, dff, heads, seq := w.cfg.DModel, w.cfg.DFF, w.cfg.Heads, w.cfg.SeqLen
	mb := batchSize / (w.micro * w.ranks) // sequences per micro-batch
	T := mb * seq                         // tokens per micro-batch

	// tensor.
	x := tensor.RandN(rng, T, d, 1)
	h := tensor.RandN(rng, T, dff, 1)
	w1 := tensor.RandN(rng, d, dff, 0.1)
	wq := tensor.RandN(rng, d, d, 0.1)
	outFF, outAttn := tensor.Zeros(T, dff), tensor.Zeros(T, d)
	gw := tensor.Zeros(dff, d)
	ffn := tm(func() { tensor.MatMulInto(outFF, x, w1) })
	res.set("tensor.gemm_ffn_ms", ffn)
	res.set("tensor.gemm_ffn_gflops", 2*float64(T)*float64(d)*float64(dff)/(ffn*1e6))
	res.set("tensor.gemm_attn_ms", tm(func() { tensor.MatMulInto(outAttn, x, wq) }))
	res.set("tensor.tmatmul_grad_ms", tm(func() { tensor.TMatMulAddInto(gw, h, x) }))
	res.set("tensor.factor_ms", tm(func() { tensor.Put(tensor.TMatMul(h, h)) }))
	for name, n := range map[string]int{"tensor.spd_inverse_d_ms": d, "tensor.spd_inverse_dff_ms": dff} {
		spd := tensor.RandSPD(rng, n, 1e-2)
		res.set(name, tm(func() {
			inv, err := tensor.SPDInverse(spd, 1e-2)
			if err != nil {
				res.violate("%s: %v", name, err)
				return
			}
			tensor.Put(inv)
		}))
	}

	// nn: one block at the micro-batch shape.
	blk := nn.NewTransformerBlock("probe", d, dff, heads, rng)
	blk.SetShape(mb, seq)
	grad := tensor.RandN(rng, T, d, 1)
	gradFF := tensor.RandN(rng, T, dff, 1)
	fwd := tm(func() { blk.Forward(x) })
	bwd := tm(func() { blk.Backward(grad) }) // every Backward follows the last Forward's caches
	res.set("nn.block_fwd_ms", fwd)
	res.set("nn.block_bwd_ms", bwd)
	res.set("nn.attention_fwd_ms", tm(func() { blk.Attn.Forward(x) }))
	res.set("nn.attention_bwd_ms", tm(func() { blk.Attn.Backward(grad) }))
	res.set("nn.dense_fwdbwd_ms", tm(func() { blk.FF1.Forward(x); blk.FF1.Backward(gradFF) }))
	res.set("nn.gelu_fwdbwd_ms", tm(func() { blk.Act.Forward(h); blk.Act.Backward(gradFF) }))
	res.set("nn.layernorm_fwdbwd_ms", tm(func() { blk.Norm1.Forward(x); blk.Norm1.Backward(grad) }))
	scores, probs := tensor.RandN(rng, seq, seq, 1), tensor.Zeros(seq, seq)
	res.set("nn.softmax_ms", tm(func() {
		for i := 0; i < mb*heads; i++ { // one attention forward's worth of row softmaxes
			nn.SoftmaxRowsInto(probs, scores)
		}
	}))
	// Ladder check: the blocks' share of the engine's forward + recompute +
	// backward device time (recompute re-runs the forward, hence 2 x fwd).
	blockMS := float64(w.cfg.Blocks*w.micro) * (2*fwd + bwd)
	var base float64
	for _, n := range []string{"engine.forward_ms", "engine.recompute_ms", "engine.backward_ms"} {
		base += res.Metrics[n].Value
	}
	res.set("nn.block_share", blockMS/base)

	// kfac: one block's six Dense layers, statistics captured by a real
	// forward + backward.
	layers := blk.DenseLayers()
	for _, l := range layers {
		l.CaptureKFAC = true
	}
	blk.Forward(x)
	blk.Backward(grad)
	pre := kfac.NewPreconditioner(layers, kfac.DefaultOptions())
	kerr := func(err error) {
		if err != nil {
			res.violate("kfac probe: %v", err)
		}
	}
	res.set("kfac.curvature_ms", tm(func() { kerr(pre.UpdateCurvature(float64(T))) }))
	res.set("kfac.inverse_ms", tm(func() { kerr(pre.UpdateInverses()) }))
	res.set("kfac.precondition_ms", tm(func() { pre.Precondition() }))

	// transport: one all-reduce at the model's gradient size over a fresh
	// 2-rank ring. 0 on the loopback workloads, which never touch a wire.
	probeMS, mbs := 0.0, 0.0
	if w.ranks > 1 {
		n := int(res.Metrics["optim.params"].Value)
		var err error
		if probeMS, err = allReduceProbe(w.ranks, n, tm); err != nil {
			res.violate("transport probe: %v", err)
		} else {
			mbs = float64(8*n) / 1e6 / (probeMS / 1000)
		}
	}
	res.set("transport.allreduce_probe_ms", probeMS)
	res.set("transport.allreduce_probe_mb_s", mbs)
}

// allReduceProbe times an n-float all-reduce across a local ring.
func allReduceProbe(ranks, n int, tm func(func()) float64) (float64, error) {
	rings, err := transport.NewLocalRing(ranks, transport.DefaultChunkFloats)
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, r := range rings {
			r.Close() // probe sockets: nothing to do about a close error
		}
	}()
	dsts, parts := make([][]float64, ranks), make([][]float64, ranks)
	for r := range rings {
		dsts[r], parts[r] = make([]float64, n), make([]float64, n)
		for i := range parts[r] {
			parts[r][i] = float64(r + i)
		}
	}
	errs := make([]error, ranks)
	ms := tm(func() {
		var wg sync.WaitGroup
		for r := 1; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, errs[r] = rings[r].AllReduce("probe/sum", dsts[r], nil, [][]float64{parts[r]})
			}(r)
		}
		_, errs[0] = rings[0].AllReduce("probe/sum", dsts[0], nil, [][]float64{parts[0]})
		wg.Wait()
	})
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return ms, nil
}
