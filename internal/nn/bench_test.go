package nn

import (
	"fmt"
	"testing"

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

func BenchmarkLayerNorm(b *testing.B) {
	rng := tensor.NewRNG(3)
	ln := NewLayerNorm("ln", 64)
	x := tensor.RandN(rng, 256, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := ln.Forward(x)
		ln.Backward(y)
	}
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
// normalise, in place) over one 64 x 64 score matrix, and the plain
// exported form beside it.
func BenchmarkSoftmaxRows(b *testing.B) {
	x := tensor.RandN(tensor.NewRNG(8), 64, 64, 1)
	p := tensor.Zeros(64, 64)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.CopyFrom(x)
			softmaxRows(p, p, 0.25, false)
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SoftmaxRowsInto(p, x)
		}
	})
}

func BenchmarkTransformerBlock(b *testing.B) {
	rng := tensor.NewRNG(6)
	blk := NewTransformerBlock("block", 64, 128, 4, rng)
	blk.SetShape(8, 32)
	x := tensor.RandN(rng, 8*32, 64, 1)
	grad := tensor.RandN(rng, 8*32, 64, 1)
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
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrossEntropy(logits, targets)
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
