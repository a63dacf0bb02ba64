package kfac

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// floats counts retained float64 and float32 elements.
type floats struct{ f64, f32 int }

// retainedFloats walks everything p references — its options, every layer
// state and whatever those point to, except the dense layers themselves
// (the model's weights, gradients and capture buffers) — and counts the
// capacity of every float64 and float32 slice it reaches, each backing
// array once. A buffer added to the K-FAC state anywhere shows in it.
func retainedFloats(p *Preconditioner) floats {
	var n floats
	seen := map[uintptr]bool{}
	dense := reflect.TypeOf((*nn.Dense)(nil))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || v.Type() == dense || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.Slice:
			elem := v.Type().Elem().Kind()
			if elem != reflect.Float64 && elem != reflect.Float32 {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
				return
			}
			if v.Cap() == 0 || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if elem == reflect.Float64 {
				n.f64 += v.Cap()
			} else {
				n.f32 += v.Cap()
			}
		}
	}
	walk(reflect.ValueOf(p))
	return n
}

// wantFloats is what p may retain once every layer holds factors and
// inverses: the two factors plus one float64 copy of each inverse, and
// under float32 mode the inverses' float32 panels beside them. Its layers'
// widths are multiples of every panel width, so no panel pads.
func wantFloats(p *Preconditioner) floats {
	var n floats
	for _, s := range p.States() {
		sq := s.Layer.DIn()*s.Layer.DIn() + s.Layer.DOut()*s.Layer.DOut()
		n.f64 += 2 * sq
		if tensor.F32() {
			n.f32 += sq
		}
	}
	return n
}

// TestRetainedFloatsAreFactorsPlusOneInverse pins the bytes K-FAC keeps
// between ops: each layer's two factors and one copy of each cached
// inverse (plus float32 panels under float32 mode) — after refreshes, a
// snapshot restore, EditInverse, and a precondition under every kernel,
// float32 mode and fma tile width, which lays the inverses out anew. A
// spare write target, a retained precondition temporary or a second copy
// of an inverse would each show as a difference.
func TestRetainedFloatsAreFactorsPlusOneInverse(t *testing.T) {
	def, wide := tensor.ActiveKernel(), tensorFMAWide.Load()
	defer func() {
		tensor.SetKernel(def)
		tensorFMAWide.Store(wide)
		tensor.SetF32(false)
	}()
	rng := tensor.NewRNG(43)
	layers := []*nn.Dense{buildLayer(t, rng, 40, 64, 96), buildLayer(t, rng, 40, 96, 32)}
	p := NewPreconditioner(layers, DefaultOptions())
	check := func(event string) {
		t.Helper()
		if got, want := retainedFloats(p), wantFloats(p); got != want {
			t.Fatalf("%s: K-FAC retains %d float64s and %d float32s, want %d and %d",
				event, got.f64, got.f32, want.f64, want.f32)
		}
	}
	refresh := func() {
		t.Helper()
		for _, l := range layers {
			l.Forward(tensor.RandN(rng, 40, l.DIn(), 1))
			l.Backward(tensor.RandN(rng, 40, l.DOut(), 0.5))
		}
		if err := p.UpdateCurvature(16); err != nil {
			t.Fatal(err)
		}
		if err := p.UpdateInverses(); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	check("first refresh")
	refresh()
	check("second refresh")
	var snap Snapshot
	snap.Save(p)
	refresh()
	if err := snap.Restore(p); err != nil {
		t.Fatal(err)
	}
	check("snapshot restore")
	p.States()[1].EditInverse(true, func(inv *tensor.Matrix) { inv.Data[0] = 2 })
	check("EditInverse")
	var configs []string
	for _, k := range tensor.AvailableKernels() {
		widths := []bool{wide}
		if k == tensor.KernelFMA && wide {
			widths = []bool{false, true}
		}
		for _, w := range widths {
			for _, f32 := range []bool{false, true, false} {
				if err := tensor.SetKernel(k); err != nil {
					t.Fatal(err)
				}
				tensorFMAWide.Store(w)
				tensor.SetF32(f32)
				configs = append(configs, fmt.Sprintf("%v wide=%v f32=%v", k, w, f32))
				p.Precondition()
				check("precondition under " + configs[len(configs)-1])
				refresh()
				check("refresh under " + configs[len(configs)-1])
			}
		}
	}
	t.Logf("checked under %d configurations", len(configs))
}

// TestFactorChainsOnTwoGoroutines runs one layer's A and B inversion chains
// on two goroutines, step by step, as the engine does under
// InversionParallel: each chain's last step under the layer's lock, every
// other step without it. No step may read what the other chain writes (the
// race detector checks), and the inverses must equal InvertFactor's.
func TestFactorChainsOnTwoGoroutines(t *testing.T) {
	mk := func() *Preconditioner {
		p := NewPreconditioner([]*nn.Dense{buildLayer(t, tensor.NewRNG(5), 40, 96, 130)}, DefaultOptions())
		if err := p.UpdateCurvature(16); err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := mk()
	if err := want.UpdateInverses(); err != nil {
		t.Fatal(err)
	}
	p := mk()
	for round := 0; round < 2; round++ {
		var (
			mu   sync.Mutex
			wg   sync.WaitGroup
			errs [2]error
		)
		for f, factorB := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var fc FactorChain
				if errs[f] = p.StartFactorChain(&fc, 0, factorB); errs[f] != nil {
					return
				}
				for fc.Active() && errs[f] == nil {
					if fc.Last() {
						mu.Lock()
						errs[f] = fc.Step()
						mu.Unlock()
					} else {
						errs[f] = fc.Step()
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	s, ws := p.States()[0], want.States()[0]
	for _, factorB := range []bool{false, true} {
		if !sameBits(s.Inverse(factorB, nil), ws.Inverse(factorB, nil)) {
			t.Fatalf("factorB=%v: concurrent chains' inverse differs from InvertFactor's", factorB)
		}
	}
	if s.InverseUpdates != 2 || s.InverseAge != 0 {
		t.Fatalf("after two concurrent refreshes: InverseUpdates %d, InverseAge %d, want 2 and 0", s.InverseUpdates, s.InverseAge)
	}
}
