package tensor

import (
	"fmt"
	"math"
	"testing"
)

// packedConfigs is every configuration a Packed's panels belong to: each
// available kernel variant, float32 mode on and off, and under fma both
// tile widths where the host has the 512-bit tiles.
func packedConfigs() []struct {
	name string
	set  func()
} {
	var cs []struct {
		name string
		set  func()
	}
	for _, k := range AvailableKernels() {
		widths := []bool{false}
		if k == KernelFMA && haveAVX512Kernels {
			widths = []bool{false, true}
		}
		for _, wide := range widths {
			for _, f32 := range []bool{false, true} {
				k, wide, f32 := k, wide, f32
				cs = append(cs, struct {
					name string
					set  func()
				}{fmt.Sprintf("%v wide=%v f32=%v", k, wide, f32), func() {
					if err := SetKernel(k); err != nil {
						panic(err)
					}
					fmaWide.Store(wide)
					SetF32(f32)
				}})
			}
		}
	}
	return cs
}

// restoreKernelConfig returns a func that puts the kernel, the tile width
// and the float32 mode back as they are now.
func restoreKernelConfig() func() {
	k, wide, f32 := ActiveKernel(), fmaWide.Load(), F32()
	return func() {
		SetKernel(k)
		fmaWide.Store(wide)
		SetF32(f32)
		SetParallelism(0)
	}
}

// TestPackedMatchesMatMulInto: a product with a Packed operand equals
// MatMulInto's bits under every configuration, at parallelism 1 and 2, over
// edge tiles in every dimension and k across both widths' depths — with the
// panels packed under the configuration itself, and with them packed under
// every other configuration first, which the product must notice and repack
// rather than read.
func TestPackedMatchesMatMulInto(t *testing.T) {
	defer restoreKernelConfig()()
	configs := packedConfigs()
	src := RandN(NewRNG(31), 600, 600, 1)
	dims := []int{1, 7, 8, 9, 16, 17, 33, 64, 130}
	ks := []int{1, 8, 17, 129, 257}
	if raceEnabled || testing.Short() {
		dims, ks = []int{7, 16, 33}, []int{17, 129}
	}
	for _, workers := range []int{1, 2} {
		SetParallelism(workers)
		for _, m := range dims {
			for _, n := range dims {
				for _, k := range ks {
					a := widthOperand(src, 0, m, k)
					b := widthOperand(src, m*k, k, n)
					for ci, c := range configs {
						c.set()
						want := Full(m, n, 42)
						MatMulInto(want, a, b)
						for pi, pc := range configs {
							// Pack under pc, multiply under c: the product
							// must repack whenever pc's panels are not c's.
							var left, right Packed
							pc.set()
							left.PackLeft(a)
							right.PackRight(b)
							c.set()
							gotA, gotB := Full(m, n, 7), Full(m, n, 7)
							MatMulPackedAInto(gotA, &left, b)
							MatMulPackedBInto(gotB, a, &right)
							if !sameBits(want, gotA) || !sameBits(want, gotB) {
								t.Fatalf("%dx%dx%d workers=%d under %s, packed under %s: packed product differs from MatMulInto",
									m, n, k, workers, c.name, configs[pi].name)
							}
							if pi != ci && testing.Short() {
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestPackedEmptyShapes: a matrix with no rows or no columns packs under
// every configuration, and its products equal MatMulInto's — a zeroed dst
// for an empty contraction.
func TestPackedEmptyShapes(t *testing.T) {
	defer restoreKernelConfig()()
	for _, c := range packedConfigs() {
		c.set()
		for _, dims := range [][2]int{{3, 0}, {0, 3}, {0, 0}} {
			m := Zeros(dims[0], dims[1])
			var left, right Packed
			left.PackLeft(m)
			right.PackRight(m)
			b, a := RandN(NewRNG(1), dims[1], 4, 1), RandN(NewRNG(2), 4, dims[0], 1)
			wantA, wantB := Full(dims[0], 4, 7), Full(4, dims[1], 7)
			MatMulInto(wantA, m, b)
			MatMulInto(wantB, a, m)
			gotA, gotB := Full(dims[0], 4, 9), Full(4, dims[1], 9)
			MatMulPackedAInto(gotA, &left, b)
			MatMulPackedBInto(gotB, a, &right)
			if !sameBits(wantA, gotA) || !sameBits(wantB, gotB) {
				t.Fatalf("%dx%d under %s: packed product differs from MatMulInto", dims[0], dims[1], c.name)
			}
			left.Unpack(Zeros(dims[0], dims[1]))
		}
	}
}

// TestPackedRepacksAfterSourceWrite: Pack is the owner's statement that the
// source changed; a product after it reads the new values.
func TestPackedRepacksAfterSourceWrite(t *testing.T) {
	a := RandN(NewRNG(1), 40, 40, 1)
	b := RandN(NewRNG(2), 40, 24, 1)
	var left Packed
	left.PackLeft(a)
	a.ScaleInPlace(2)
	left.PackLeft(a)
	want, got := Zeros(40, 24), Zeros(40, 24)
	MatMulInto(want, a, b)
	MatMulPackedAInto(got, &left, b)
	if !sameBits(want, got) {
		t.Fatal("product after PackLeft read the old source")
	}
}

// TestPackedZeroAlloc: a product with a Packed operand allocates nothing
// once its panels exist.
func TestPackedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	a := RandN(NewRNG(3), 128, 128, 1)
	g := RandN(NewRNG(4), 128, 512, 1)
	var left, right Packed
	left.PackLeft(a)
	right.PackRight(RandN(NewRNG(5), 512, 512, 1))
	tmp, out := Zeros(128, 512), Zeros(128, 512)
	run := func() {
		MatMulPackedAInto(tmp, &left, g)
		MatMulPackedBInto(out, tmp, &right)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > 0 {
		t.Fatalf("packed products allocate %.1f times per run", n)
	}
}

// TestPackedHoldsOneExactCopy: a Packed keeps its own copy — a write to the
// packed matrix afterwards changes no product — and Unpack returns that copy
// bit for bit under every configuration, after being packed under every
// other one and multiplied once (which lays it out for the active
// configuration from its own copy), over edge panels of both operands.
func TestPackedHoldsOneExactCopy(t *testing.T) {
	defer restoreKernelConfig()()
	configs := packedConfigs()
	for _, dims := range [][2]int{{1, 1}, {7, 33}, {33, 7}, {64, 64}, {130, 17}} {
		m := RandN(NewRNG(uint64(dims[0]*1000+dims[1])), dims[0], dims[1], 1)
		m.Data[0] = math.NaN()
		m.Data[len(m.Data)-1] = math.Copysign(0, -1)
		want := m.Clone()
		for _, pc := range configs {
			for _, c := range configs {
				var left, right Packed
				pc.set()
				left.PackLeft(m)
				right.PackRight(m)
				m.ScaleInPlace(3)
				c.set()
				MatMulPackedAInto(Zeros(dims[0], 5), &left, RandN(NewRNG(1), dims[1], 5, 1))
				MatMulPackedBInto(Zeros(5, dims[1]), RandN(NewRNG(2), 5, dims[0], 1), &right)
				for _, p := range []*Packed{&left, &right} {
					got := Full(dims[0], dims[1], 9)
					p.Unpack(got)
					if !sameBits(want, got) {
						t.Fatalf("%dx%d packed under %s, multiplied under %s: Unpack differs from the packed matrix",
							dims[0], dims[1], pc.name, c.name)
					}
				}
				m.CopyFrom(want)
			}
		}
	}
}
