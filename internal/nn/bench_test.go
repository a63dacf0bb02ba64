package nn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(1)
	layer := NewDense("fc", 64, 64, rng)
	x := tensor.RandN(rng, 256, 64, 1)
	grad := tensor.RandN(rng, 256, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x)
		layer.Backward(grad)
	}
}

func BenchmarkDenseWithKFACCapture(b *testing.B) {
	rng := tensor.NewRNG(2)
	layer := NewDense("fc", 64, 64, rng)
	layer.CaptureKFAC = true
	x := tensor.RandN(rng, 256, 64, 1)
	grad := tensor.RandN(rng, 256, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x)
		layer.Backward(grad)
	}
}

// blockBench* is the shape of BenchmarkTransformerBlock: the row-op
// benchmarks below report their share of one of its forward + backward
// passes at that shape.
const (
	blockBenchD, blockBenchFF, blockBenchHeads = 64, 128, 4
	blockBenchB, blockBenchS                   = 8, 32
)

var blockNs struct {
	once sync.Once
	ns   float64
}

// blockNanos times BenchmarkTransformerBlock's forward + backward, once
// per process: the denominator of the row-op rows' block_share.
func blockNanos() float64 {
	blockNs.once.Do(func() {
		rng := tensor.NewRNG(6)
		blk := NewTransformerBlock("block", blockBenchD, blockBenchFF, blockBenchHeads, rng)
		blk.SetShape(blockBenchB, blockBenchS)
		x := tensor.RandN(rng, blockBenchB*blockBenchS, blockBenchD, 1)
		grad := tensor.RandN(rng, blockBenchB*blockBenchS, blockBenchD, 1)
		const warm, runs = 20, 200
		for i := 0; i < warm; i++ {
			blk.Forward(x)
			blk.Backward(grad)
		}
		start := time.Now()
		for i := 0; i < runs; i++ {
			blk.Forward(x)
			blk.Backward(grad)
		}
		blockNs.ns = float64(time.Since(start).Nanoseconds()) / runs
	})
	return blockNs.ns
}

// reportRowOp reports a row-op benchmark's GB/s, from the bytes one
// operation reads and writes, and its block_share: perBlock operations'
// time over one transformer block's forward + backward at the same shape.
func reportRowOp(b *testing.B, bytes float64, perBlock int) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(bytes/ns, "GB/s")
	if perBlock > 0 {
		b.ReportMetric(float64(perBlock)*ns/blockNanos(), "block_share")
	}
}

// BenchmarkLayerNorm is one LayerNorm forward + backward at the block's
// 256 x 64 token matrix: forward reads x and writes x̂ and y, backward
// reads the gradient and x̂ and writes dx. A block runs two.
func BenchmarkLayerNorm(b *testing.B) {
	rng := tensor.NewRNG(3)
	ln := NewLayerNorm("ln", blockBenchD)
	x := tensor.RandN(rng, blockBenchB*blockBenchS, blockBenchD, 1)
	blockNanos()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := ln.Forward(x)
		ln.Backward(y)
	}
	reportRowOp(b, 6*8*float64(len(x.Data)), 2)
}

// BenchmarkGELU is the FFN activation over 256 x 256 N(0,1) values: fwd is
// one erf per element (tensor.GELUForward), bwd one exp (GELUBackward).
func BenchmarkGELU(b *testing.B) {
	rng := tensor.NewRNG(4)
	act := NewGELU()
	x := tensor.RandN(rng, 256, 256, 1)
	y := act.Forward(x).Clone()
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x.Data)), "ns/elem")
	}
	b.Run("fwd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			act.Forward(x)
		}
		perElem(b)
	})
	b.Run("bwd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			act.Backward(y)
		}
		perElem(b)
	})
}

// attnBenchShapes are the micro-batch shapes of the repository benchmark's
// three models (tiny, base, wide) plus the B8 S32 shape this benchmark ran
// at before it was split.
var attnBenchShapes = []struct{ b, s, d, heads int }{
	{2, 16, 32, 4}, {2, 64, 64, 4}, {2, 32, 128, 4}, {8, 32, 64, 4},
}

// BenchmarkAttentionForwardBackward has two leaves per shape: module is the
// whole sublayer (four Dense projections included), core is attend +
// attendBackward alone and reports the GFLOP/s of its six products
// (forward 4·B·S²·d, backward 8·B·S²·d flops). The worker pool follows
// -cpu.
func BenchmarkAttentionForwardBackward(b *testing.B) {
	tensor.SetParallelism(0)
	for _, sh := range attnBenchShapes {
		rng := tensor.NewRNG(5)
		attn := NewMultiHeadAttention("attn", sh.d, sh.heads, rng)
		attn.SetShape(sh.b, sh.s)
		x := tensor.RandN(rng, sh.b*sh.s, sh.d, 1)
		grad := tensor.RandN(rng, sh.b*sh.s, sh.d, 1)
		name := fmt.Sprintf("B%d_S%d_d%d_h%d", sh.b, sh.s, sh.d, sh.heads)
		b.Run(name+"/module", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				attn.Forward(x)
				attn.Backward(grad)
			}
		})
		b.Run(name+"/core", func(b *testing.B) {
			q, k, v := tensor.RandN(rng, sh.b*sh.s, sh.d, 1), tensor.RandN(rng, sh.b*sh.s, sh.d, 1), tensor.RandN(rng, sh.b*sh.s, sh.d, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				attn.attend(q, k, v)
				attn.attendBackward(grad)
			}
			flops := 12 * float64(sh.b*sh.s*sh.s*sh.d)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkSoftmaxRows is attention's fused row pass (scale, max, exp,
// normalise, in place) over one 64 x 64 score matrix, the plain exported
// form beside it, and block: the forward and backward row passes over the
// transformer block's 1024 x 32 stack of score rows (B·heads·S rows of S),
// as attention runs them.
func BenchmarkSoftmaxRows(b *testing.B) {
	x := tensor.RandN(tensor.NewRNG(8), 64, 64, 1)
	p := tensor.Zeros(64, 64)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.CopyFrom(x)
			softmaxRows(p, p, 0.25, false)
		}
		reportRowOp(b, 2*8*float64(len(x.Data)), 0)
	})
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SoftmaxRowsInto(p, x)
		}
		reportRowOp(b, 2*8*float64(len(x.Data)), 0)
	})
	b.Run("block", func(b *testing.B) {
		rng := tensor.NewRNG(9)
		rows := blockBenchB * blockBenchHeads * blockBenchS
		scores := tensor.RandN(rng, rows, blockBenchS, 1)
		probs, ds := tensor.Zeros(rows, blockBenchS), tensor.Zeros(rows, blockBenchS)
		grad := tensor.RandN(rng, rows, blockBenchS, 1)
		blockNanos()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			softmaxRows(probs, scores, 0.25, false)
			softmaxBackwardRows(ds, probs, grad, 0.25)
		}
		reportRowOp(b, 5*8*float64(len(scores.Data)), 1)
	})
}

// BenchmarkDenseBias is a transformer block's Dense bias passes at
// BenchmarkTransformerBlock's shape: for each of the six projections (q, k,
// v, out and the FFN's second at 64 outputs, its first at 128) the forward
// bias add and the backward bias-gradient column sum over 256 tokens.
func BenchmarkDenseBias(b *testing.B) {
	rng := tensor.NewRNG(10)
	tokens := blockBenchB * blockBenchS
	var layers []*Dense
	var ys, grads []*tensor.Matrix
	var bytes float64
	for i, dout := range []int{blockBenchD, blockBenchD, blockBenchD, blockBenchD, blockBenchFF, blockBenchD} {
		layers = append(layers, NewDense(fmt.Sprintf("fc%d", i), blockBenchD, dout, rng))
		ys = append(ys, tensor.RandN(rng, tokens, dout, 1))
		grads = append(grads, tensor.RandN(rng, tokens, dout, 1))
		bytes += 3 * 8 * float64(tokens*dout) // y read and written, the gradient read
	}
	blockNanos()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, d := range layers {
			tensor.AddRowVector(ys[l].Data, d.B.Data)
			tensor.AddColSums(d.GB.Data, grads[l].Data)
		}
	}
	reportRowOp(b, bytes, 1)
}

func BenchmarkTransformerBlock(b *testing.B) {
	rng := tensor.NewRNG(6)
	blk := NewTransformerBlock("block", blockBenchD, blockBenchFF, blockBenchHeads, rng)
	blk.SetShape(blockBenchB, blockBenchS)
	x := tensor.RandN(rng, blockBenchB*blockBenchS, blockBenchD, 1)
	grad := tensor.RandN(rng, blockBenchB*blockBenchS, blockBenchD, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Forward(x)
		blk.Backward(grad)
	}
}

func BenchmarkCrossEntropy(b *testing.B) {
	rng := tensor.NewRNG(7)
	logits := tensor.RandN(rng, 512, 96, 1)
	targets := make([]int, 512)
	for i := range targets {
		if i%4 == 0 {
			targets[i] = rng.Intn(96)
		} else {
			targets[i] = IgnoreIndex
		}
	}
	b.Run("alloc", func(b *testing.B) { // a fresh gradient per call
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrossEntropyInto(tensor.Zeros(logits.Rows, logits.Cols), logits, targets)
		}
	})
	grad := tensor.Zeros(512, 96)
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrossEntropyInto(grad, logits, targets)
		}
	})
	b.Run("loss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrossEntropyLoss(logits, targets)
		}
	})
}
