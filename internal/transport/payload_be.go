//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// The big-endian fallback: the wire stays little-endian, so each value is
// converted through the scratch buffer on its way out and in.

// writePayload writes p's values to w as little-endian float64s.
func writePayload(w *bufio.Writer, p []float64, scratch *[]byte) error {
	b := grow(scratch, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(b)
	return err
}

// readPayload fills p with len(p) little-endian float64s read from r.
func readPayload(r io.Reader, p []float64, scratch *[]byte) error {
	b := grow(scratch, 8*len(p))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// grow returns (*scratch)[:n], reallocating it when it is shorter.
func grow(scratch *[]byte, n int) []byte {
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	return (*scratch)[:n]
}
