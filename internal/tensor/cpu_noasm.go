//go:build !amd64 || purego

package tensor

// Non-amd64 targets and purego builds have no assembly micro-kernels; the
// packed driver uses the portable tiled Go kernels only.
const (
	haveFMAKernels    = false
	haveAVX512Kernels = false
)
