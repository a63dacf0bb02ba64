package tensor

import (
	"fmt"
	"sync/atomic"
)

// This file is the kernel-dispatch layer: a process-wide selection of which
// implementation the MatMul*/TMatMul* entry points and the element-wise
// exp/erf entry points (vecmath.go) run, plus the float32 compute-mode
// switch.
//
// Three kernel variants exist:
//
//   - KernelScalar — the original cache-blocked scalar loops (matmul.go).
//     Kept as the parity reference: the packed kernels are tested against
//     it, and it is the only float64 variant compiled under the purego
//     build tag's assumptions (it uses no assembly either way).
//   - KernelTiled — GotoBLAS-style packed panels driven through 4x2
//     register-tiled pure-Go micro-kernels (gemm.go, microkernel.go).
//     Portable to every GOARCH. Bit-identical to KernelScalar on float64:
//     both reduce each output element with one multiply-rounding and one
//     add-rounding per k step, in ascending k order.
//   - KernelFMA — the same packed driver calling hand-written amd64
//     assembly micro-kernels that use fused multiply-add. Selected only
//     when CPUID reports AVX2+FMA with OS XSAVE support, and never under
//     the purego tag. FMA fuses the multiply and add into a single
//     rounding, so results differ from the scalar/tiled variants by at
//     most the fused-rounding delta — but the reduction order per element
//     is still fixed ascending k, so the worker-count / replica-count /
//     schedule bit-identity contracts hold within the variant. The variant
//     resolves once at init, from CPUID and XCR0 (detectFMA,
//     TestDetectFMA), to one of two tile widths: 256-bit AVX2 tiles (8x4
//     float64, 8x8 float32) or, where the CPU has AVX512F and the OS saves
//     the opmask and ZMM state, 512-bit tiles (8x16 float64, 8x32 float32;
//     a product too narrow to fill one 16- / 32-column panel keeps the
//     256-bit tile). The widths are one variant, not two: every C element
//     is one FMA per k in ascending k at either, so they are bit-identical
//     — TestFMAWidthIdentity (every driver entry point over a generated
//     shape matrix) and engine's TestFMAWidthEngineIdentity (losses,
//     gradients, K-FAC factors and inverses of real training rounds) flip
//     the width on a host that has both — and no API names a width;
//     KernelDetail reports the one in use. Its element-wise kernels are
//     AVX2 code (vecmath_amd64.s) at either width — exp and erf are about
//     3 % of a training step, measured, so 512-bit forms would buy nothing
//     yet — where the other two variants loop over math.Exp and
//     math.Erf: a second, stated difference — every exp and erf within
//     2 ULP of math's, special values exact (TestVecMathAccuracy,
//     TestVecMathSpecials, FuzzVecMath) — and again none within the
//     variant, because a result depends on the element's value alone
//     (TestVecMathPositionIndependent).
//
// The default is the best available variant (FMA where supported, tiled
// otherwise). SetKernel must not be called while kernels are executing —
// configure at startup or between training steps, like SetParallelism.
//
// Float32 mode (SetF32) is orthogonal: when enabled, the packed driver
// narrows its panels to float32, accumulates in float32, and widens on
// write-back — halving packed-panel memory traffic. KernelScalar has no
// separate float32 loop; in float32 mode it shares the tiled Go
// micro-kernels, which are themselves bit-identical to a naive ascending-k
// float32 reduction. Factorization-sensitive code stays float64
// regardless of the mode: eigen decomposition and damping never route
// through GEMM, and the blocked SPD inverse (cholesky.go) pins the driver's
// float64 micro-kernels.

// Kernel identifies one implementation variant of the matmul and
// element-wise families.
type Kernel int32

const (
	// KernelScalar is the cache-blocked scalar reference implementation.
	KernelScalar Kernel = iota
	// KernelTiled is the packed-panel pure-Go register-tiled implementation.
	KernelTiled
	// KernelFMA is the packed-panel amd64 FMA assembly implementation, at
	// the host's vector width (AVX2 or AVX-512 tiles; see KernelDetail).
	KernelFMA
)

// String returns the variant's stable lowercase name (used by CLI headers
// and benchmark row names).
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelTiled:
		return "tiled"
	case KernelFMA:
		return "fma"
	}
	return fmt.Sprintf("kernel(%d)", int32(k))
}

var (
	activeKernel atomic.Int32
	f32Mode      atomic.Bool
	// fmaWide makes KernelFMA's products run the 512-bit tiles. Resolved
	// once at init; only the width-identity tests flip it afterwards.
	fmaWide atomic.Bool
)

func init() {
	k := KernelTiled
	if haveFMAKernels {
		k = KernelFMA
	}
	activeKernel.Store(int32(k))
	fmaWide.Store(haveAVX512Kernels)
}

// ActiveKernel returns the currently selected kernel variant.
func ActiveKernel() Kernel { return Kernel(activeKernel.Load()) }

// KernelDetail names the active variant together with the micro-kernel
// tiles it resolved to on this host, e.g. "fma avx512 8x16f64/8x32f32" —
// for run headers and bench logs. Kernel.String stays the variant's name.
func KernelDetail() string {
	switch k := ActiveKernel(); {
	case k == KernelFMA && fmaWide.Load():
		return "fma avx512 8x16f64/8x32f32"
	case k == KernelFMA:
		return "fma avx2 8x4f64/8x8f32"
	case k == KernelTiled:
		return "tiled 4x2f64/4x2f32"
	default:
		return k.String()
	}
}

// SetKernel selects the kernel variant used by every subsequent matmul and
// element-wise call. It
// returns an error if the variant is not available on this CPU or build
// (KernelFMA requires amd64 with AVX2+FMA and a non-purego build). Like
// SetParallelism, it must not be called while kernels are executing.
func SetKernel(k Kernel) error {
	switch k {
	case KernelScalar, KernelTiled:
	case KernelFMA:
		if !haveFMAKernels {
			return fmt.Errorf("tensor: kernel %q not available on this CPU/build", k)
		}
	default:
		return fmt.Errorf("tensor: unknown kernel %d", int32(k))
	}
	activeKernel.Store(int32(k))
	return nil
}

// ParseKernel maps a variant name ("scalar", "tiled", "fma") to its Kernel
// — the inverse of String, for CLI -kernel flags.
func ParseKernel(name string) (Kernel, error) {
	for _, k := range []Kernel{KernelScalar, KernelTiled, KernelFMA} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("tensor: unknown kernel %q (want scalar, tiled or fma)", name)
}

// AvailableKernels returns every variant that SetKernel would accept on
// this CPU and build, in ascending capability order.
func AvailableKernels() []Kernel {
	ks := []Kernel{KernelScalar, KernelTiled}
	if haveFMAKernels {
		ks = append(ks, KernelFMA)
	}
	return ks
}

// SetF32 toggles float32 compute mode for the packed matmul kernels and
// float32 storage for new Snap captures. Float64 matrices remain the
// API currency either way; the mode only changes internal panel precision
// and snapshot storage. Not safe to flip mid-kernel; set at startup.
func SetF32(on bool) { f32Mode.Store(on) }

// F32 reports whether float32 compute/storage mode is enabled.
func F32() bool { return f32Mode.Load() }
