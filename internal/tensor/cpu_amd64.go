//go:build amd64 && !purego

package tensor

// Runtime CPU-feature detection for the FMA assembly micro-kernels. The
// checks follow the Intel SDM procedure: an instruction set is safe to
// execute only when CPUID reports it AND the OS has enabled saving its
// register state via XSETBV (OSXSAVE + the set's XCR0 bits). The register
// reads and the decision are separate so the decision is a pure function
// with a table test (TestDetectFMA).

// cpuid executes the CPUID instruction (implemented in cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0 (implemented in cpu_amd64.s).
func xgetbv() (eax, edx uint32)

// cpuidLeaves holds the CPUID registers detectFMA decides from.
type cpuidLeaves struct {
	maxLeaf uint32 // CPUID.0:EAX
	ecx1    uint32 // CPUID.1:ECX
	ebx7    uint32 // CPUID.(7,0):EBX; zero when maxLeaf < 7
}

const (
	bitFMA     = 1 << 12 // CPUID.1:ECX
	bitOSXSAVE = 1 << 27
	bitAVX     = 1 << 28
	bitAVX2    = 1 << 5 // CPUID.(7,0):EBX
	bitAVX512F = 1 << 16

	xcr0YMM = 0x06 // XMM (bit 1) and YMM (bit 2) state
	xcr0ZMM = 0xE6 // plus opmask (5), ZMM_Hi256 (6) and Hi16_ZMM (7)
)

func readCPUID() (l cpuidLeaves) {
	l.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, l.ecx1, _ = cpuid(1, 0)
	if l.maxLeaf >= 7 {
		_, l.ebx7, _, _ = cpuid(7, 0)
	}
	return l
}

// readXCR0 returns XCR0's low half, or zero when the OS has not enabled
// XSAVE (XGETBV would fault).
func readXCR0(l cpuidLeaves) uint32 {
	if l.ecx1&bitOSXSAVE == 0 {
		return 0
	}
	xcr0, _ := xgetbv()
	return xcr0
}

// detectFMA reports whether the AVX2+FMA micro-kernels can run on a CPU
// with these registers, and whether their 512-bit forms can too: AVX512F
// on top of everything the 256-bit kernels need, with the opmask and ZMM
// state enabled by the OS.
func detectFMA(l cpuidLeaves, xcr0 uint32) (avx2, avx512 bool) {
	const need1 = bitFMA | bitOSXSAVE | bitAVX
	avx2 = l.maxLeaf >= 7 && l.ecx1&need1 == need1 && xcr0&xcr0YMM == xcr0YMM && l.ebx7&bitAVX2 != 0
	avx512 = avx2 && l.ebx7&bitAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return avx2, avx512
}

// haveFMAKernels reports whether the AVX2+FMA assembly kernels can run on
// this CPU, haveAVX512Kernels whether the 512-bit GEMM tiles can.
var haveFMAKernels, haveAVX512Kernels = func() (bool, bool) {
	l := readCPUID()
	return detectFMA(l, readXCR0(l))
}()
