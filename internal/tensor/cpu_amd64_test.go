//go:build amd64 && !purego

package tensor

import "testing"

// The tile-width decision as a function of the CPUID and XCR0 registers:
// an instruction set counts only when CPUID reports it and the OS saves its
// registers.
func TestDetectFMA(t *testing.T) {
	const (
		ecx1    = bitFMA | bitOSXSAVE | bitAVX
		avx2    = bitAVX2
		avx512f = bitAVX2 | bitAVX512F
	)
	for _, c := range []struct {
		name             string
		leaves           cpuidLeaves
		xcr0             uint32
		wantFMA, want512 bool
	}{
		{"avx512 host", cpuidLeaves{0x1b, ecx1, avx512f}, 0xE7, true, true},
		{"avx512 host, extra XCR0 state (AMX)", cpuidLeaves{0x1b, ecx1, avx512f}, 0x600E7, true, true},
		{"avx2 host", cpuidLeaves{0x16, ecx1, avx2}, 0x07, true, false},
		{"AVX512F but OS saves YMM only", cpuidLeaves{0x1b, ecx1, avx512f}, 0x07, true, false},
		{"AVX512F but no opmask state", cpuidLeaves{0x1b, ecx1, avx512f}, 0xC7, true, false},
		{"AVX512F but no Hi16_ZMM state", cpuidLeaves{0x1b, ecx1, avx512f}, 0x67, true, false},
		{"ZMM state enabled without AVX512F", cpuidLeaves{0x16, ecx1, avx2}, 0xE7, true, false},
		{"AVX512F without AVX2", cpuidLeaves{0x1b, ecx1, bitAVX512F}, 0xE7, false, false},
		{"no OSXSAVE", cpuidLeaves{0x1b, ecx1 &^ bitOSXSAVE, avx512f}, 0, false, false},
		{"no FMA", cpuidLeaves{0x1b, ecx1 &^ bitFMA, avx512f}, 0xE7, false, false},
		{"no AVX", cpuidLeaves{0x1b, ecx1 &^ bitAVX, avx512f}, 0xE7, false, false},
		{"OS saves XMM only", cpuidLeaves{0x1b, ecx1, avx512f}, 0x03, false, false},
		{"max leaf < 7", cpuidLeaves{0x06, ecx1, 0}, 0xE7, false, false},
	} {
		fma, wide := detectFMA(c.leaves, c.xcr0)
		if fma != c.wantFMA || wide != c.want512 {
			t.Errorf("%s: detectFMA = (avx2 %v, avx512 %v), want (%v, %v)", c.name, fma, wide, c.wantFMA, c.want512)
		}
	}
}
