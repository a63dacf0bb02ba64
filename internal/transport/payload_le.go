//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package transport

import (
	"bufio"
	"io"
	"unsafe"
)

// On a little-endian host a float64 payload's memory already is its wire
// form, so a data frame's payload crosses in place: written straight from
// the caller's slice and read straight into the pooled frame's.

// payloadBytes views p's memory as bytes.
func payloadBytes(p []float64) []byte {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 8*len(p))
}

// writePayload writes p's values to w as little-endian float64s.
func writePayload(w *bufio.Writer, p []float64, _ *[]byte) error {
	_, err := w.Write(payloadBytes(p))
	return err
}

// readPayload fills p with len(p) little-endian float64s read from r.
func readPayload(r io.Reader, p []float64, _ *[]byte) error {
	_, err := io.ReadFull(r, payloadBytes(p))
	return err
}
