package tensor

import (
	"fmt"
	"math"
	"testing"
)

// packWant is the panel layout stated once, element by element: lane l of
// step t is the source element the primitive names, narrowed to T, and
// lanes past the last are +0. Both implementations are held to it.
func packWant[T real](width int, data []float64, ld, p0, lanes, k0, kc int, rows bool) []T {
	out := make([]T, kc*width)
	for t := 0; t < kc; t++ {
		for l := 0; l < lanes; l++ {
			if rows {
				out[t*width+l] = T(data[(p0+l)*ld+k0+t])
			} else {
				out[t*width+l] = T(data[(k0+t)*ld+p0+l])
			}
		}
	}
	return out
}

// packSpecials are the float64 values whose narrowing has an edge: NaNs
// (quiet, signalling, negative, with payloads), infinities, signed zeros,
// float64 subnormals (which narrow to ±0), float32 subnormals and the
// smallest normal, values past float32's range, and ties — halfway between
// two float32 neighbours, which round to the even one.
var packSpecials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling
	math.Float64frombits(0xfff8000000000123), // negative, payload
	math.Float64frombits(0x7ff4000000000000),
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2e-308,
	1e-40, -1e-45, 1.4e-45, 7e-46, 1.1754943508222875e-38,
	math.MaxFloat32, 3.5e38, -1e39, math.MaxFloat64,
	1 + 0x1p-24, 1 + 3*0x1p-24, -(1 + 0x1p-24), 0x1p-149 * 1.5, 0x1p-149 * 2.5,
	math.Nextafter(1+0x1p-24, 2), math.Nextafter(1+0x1p-24, 0),
}

// packSource fills a rows x cols row-major matrix with random values, every
// seventh element one of packSpecials.
func packSource(r *RNG, rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	for i := range data {
		if i%7 == 3 {
			data[i] = packSpecials[int(r.Uint64()%uint64(len(packSpecials)))]
		} else {
			data[i] = r.NormFloat64() * 4
		}
	}
	return data
}

// samePanel reports the first element where two panels' bits differ.
func samePanel[T real](got, want []T) (int, bool) {
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			return i, false
		}
	}
	return 0, true
}

func bitsOf[T real](v T) uint64 {
	if x, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(x))
	}
	return math.Float64bits(float64(v))
}

// checkPack packs one panel with the Go loops and, when the assembly is
// built in, with the vector packers, into buffers pre-filled with a NaN
// sentinel (so a lane either leaves unwritten shows), and holds both to
// packWant bit for bit.
func checkPack[T real](t testing.TB, name string, width int, data []float64, ld, p0, lanes, k0, kc int, rows bool) {
	t.Helper()
	want := packWant[T](width, data, ld, p0, lanes, k0, kc, rows)
	impls := []struct {
		name string
		pack func(dst []T, width int, data []float64, ld, p0, lanes, k0, kc int)
	}{{"go", packCols[T]}, {"vec", packColsVec[T]}}
	if rows {
		impls[0].pack, impls[1].pack = packRows[T], packRowsVec[T]
	}
	if !haveFMAKernels {
		impls = impls[:1]
	}
	for _, im := range impls {
		got := make([]T, (kc+1)*width)
		for i := range got {
			got[i] = T(math.Float64frombits(0x7ff8dead0000beef))
		}
		im.pack(got, width, data, ld, p0, lanes, k0, kc)
		if i, ok := samePanel(got, want); !ok {
			t.Fatalf("%s %s: element %d (step %d lane %d) = %v (%#x), want %v (%#x)",
				name, im.name, i, i/width, i%width, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
		for i, v := range got[kc*width:] {
			if bitsOf(v) != bitsOf(T(math.Float64frombits(0x7ff8dead0000beef))) {
				t.Fatalf("%s %s: wrote element %d past the panel", name, im.name, kc*width+i)
			}
		}
	}
}

// TestPackVecMatchesGo holds the Go packers and the fma variant's assembly
// packers to the panel layout over a generated matrix: every panel width
// the tiles use (4, 8, 16, 32), every lane count of a full or edge panel
// (1..width), contraction depths around the unroll and both KC blocks,
// strided windows at non-zero offsets, float64 and float32 panels, source
// values with every narrowing edge. Under purego only the Go packers run.
func TestPackVecMatchesGo(t *testing.T) {
	r := NewRNG(7)
	kcs := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, gemmKCWide - 1, gemmKCWide + 1, gemmKC - 1, gemmKC + 1}
	for _, width := range []int{4, 8, 16, 32} {
		for lanes := 1; lanes <= width; lanes++ {
			for _, kc := range kcs {
				for _, rows := range []bool{true, false} {
					// A window at (p0, k0) of a matrix wider than the
					// panel reads, its stride ld past both.
					p0, k0 := 1+lanes%3, 2+kc%5
					var nr, nc int
					if rows {
						nr, nc = p0+lanes+1, k0+kc+3
					} else {
						nr, nc = k0+kc+1, p0+lanes+5
					}
					data := packSource(r, nr, nc)
					name := fmt.Sprintf("rows=%v width=%d lanes=%d kc=%d", rows, width, lanes, kc)
					checkPack[float64](t, name, width, data, nc, p0, lanes, k0, kc, rows)
					checkPack[float32](t, name+" f32", width, data, nc, p0, lanes, k0, kc, rows)
				}
			}
		}
	}
}

// TestPackNarrowsLikeGo narrows every special value through each lane of a
// full and an edge panel of both primitives: the assembly's VCVTPD2PS and
// VCVTSD2SS must store the bits Go's float32 conversion does.
func TestPackNarrowsLikeGo(t *testing.T) {
	for _, width := range []int{8, 32} {
		for _, lanes := range []int{width, width - 1} {
			for _, rows := range []bool{true, false} {
				for shift := range packSpecials {
					kc := 6
					data := make([]float64, 40*40)
					for i := range data {
						data[i] = packSpecials[(i+shift)%len(packSpecials)]
					}
					name := fmt.Sprintf("rows=%v width=%d lanes=%d shift=%d", rows, width, lanes, shift)
					checkPack[float32](t, name, width, data, 40, 0, lanes, 0, kc, rows)
				}
			}
		}
	}
}

// TestPackVecChecksBounds: the vector packers check what the assembly
// cannot — a panel whose reads or writes leave the slices panics in Go
// instead of touching memory.
func TestPackVecChecksBounds(t *testing.T) {
	data := make([]float64, 8*8)
	dst := make([]float64, 8*8)
	for _, c := range []struct {
		name string
		pack func()
	}{
		{"rows past data", func() { packRowsVec(dst, 8, data, 8, 1, 8, 0, 8) }},
		{"cols past data", func() { packColsVec(dst, 8, data, 8, 1, 8, 0, 8) }},
		{"dst too short", func() { packRowsVec(dst[:8*7], 8, data, 8, 0, 8, 0, 8) }},
		{"lanes past width", func() { packColsVec(dst, 4, data, 8, 0, 5, 0, 4) }},
		{"width not a multiple of 4", func() { packColsVec(dst, 6, data, 8, 0, 6, 0, 4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.pack()
		}()
	}
}

// FuzzPack packs random windows of random special-laden matrices through
// both implementations at every panel width the tiles use.
func FuzzPack(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(8), uint16(16), uint8(3), uint8(1), false, true)
	f.Add(uint64(2), uint8(3), uint8(31), uint16(257), uint8(0), uint8(0), true, false)
	f.Add(uint64(3), uint8(0), uint8(1), uint16(0), uint8(9), uint8(5), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, wsel, lanes uint8, kc uint16, pad, off uint8, f32, rows bool) {
		width := []int{4, 8, 16, 32}[wsel%4]
		l := 1 + int(lanes)%width
		k := int(kc) % 300
		p0, k0 := int(off)%4, int(off/4)%4
		var nr, nc int
		if rows {
			nr, nc = p0+l, k0+k+int(pad)%16
		} else {
			nr, nc = k0+k+1, p0+l+int(pad)%16
		}
		data := packSource(NewRNG(seed), max(nr, 1), max(nc, 1))
		name := fmt.Sprintf("rows=%v width=%d lanes=%d kc=%d", rows, width, l, k)
		if f32 {
			checkPack[float32](t, name, width, data, max(nc, 1), p0, l, k0, k, rows)
		} else {
			checkPack[float64](t, name, width, data, max(nc, 1), p0, l, k0, k, rows)
		}
	})
}
