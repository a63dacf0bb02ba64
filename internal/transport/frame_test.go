package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// decodeRing is a Ring holding only what readFrame and sendFrame touch: the
// reader's scratch and name-intern map, the frame pools, and a writer.
func decodeRing(w *bytes.Buffer) *Ring {
	return &Ring{names: map[string]string{}, wbuf: bufio.NewWriter(w)}
}

// FuzzReadFrame drives the ring's frame decoder with arbitrary bytes and
// with frames sendFrame encoded.
//
// Arbitrary bytes must decode or fail, never panic, and a frame that
// decodes must have consumed exactly its wire size: the header's count is
// the bound of what is read. A data frame declaring more than 1<<28 floats
// must fail before anything past the header is read. (The decoder takes a
// pooled payload of the declared count before reading it, so inputs
// declaring more than 1<<20 floats but at most 1<<28 are skipped here:
// each would allocate up to 2 GiB.)
//
// The payload bits of the fuzz input, sent as a data frame under the
// fuzzed name and read back, must come back bit for bit — NaNs of either
// kind, −0, subnormals and infinities included — with the name interned:
// a second frame of the same name decodes to the same string.
func FuzzReadFrame(f *testing.F) {
	frameBytes := func(fr *frame) []byte {
		var out bytes.Buffer
		r := decodeRing(&out)
		if err := r.sendFrame(fr); err != nil {
			f.Fatal(err)
		}
		return out.Bytes()
	}
	vals := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.Float64frombits(1 << 51),
		math.Inf(1), math.Inf(-1), 1, -2.5,
	}
	f.Add(frameBytes(&frame{kind: frameData, pass: passFinal, epoch: 3, chunk: 1, name: "fA/0/1", payload: vals}))
	f.Add(frameBytes(&frame{kind: frameData, name: "g/1/0"}))
	f.Add(frameBytes(&frame{kind: frameAbort, origin: 1, epoch: 2, reason: "injected"}))
	f.Add(frameBytes(&frame{kind: frameHeartbeat, origin: 1, epoch: 9, chunk: 1234}))
	f.Add(frameBytes(&frame{kind: frameHello, chunk: 2}))
	oversized := frameBytes(&frame{kind: frameData, name: "x"})
	binary.LittleEndian.PutUint32(oversized[16:], 1<<28+1)
	f.Add(oversized)
	f.Add([]byte{})
	f.Add([]byte{frameData, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) >= frameHeaderSize && in[0] == frameData {
			if c := binary.LittleEndian.Uint32(in[16:]); c > 1<<20 && c <= 1<<28 {
				t.Skip("declares a payload too large to allocate per input")
			}
		}
		r := decodeRing(nil)
		src := bytes.NewReader(in)
		// A reader buffer smaller than most frames, so payloads also cross
		// the direct-read path of bufio.
		br := bufio.NewReaderSize(src, 16)
		fr, err := r.readFrame(br)
		consumed := len(in) - src.Len() - br.Buffered()
		if err == nil {
			if want := frameWireSize(fr); int64(consumed) != want {
				t.Fatalf("decoded a %d-byte frame, consumed %d bytes", want, consumed)
			}
		} else if len(in) >= frameHeaderSize && in[0] == frameData && binary.LittleEndian.Uint32(in[16:]) > 1<<28 && consumed > frameHeaderSize {
			t.Fatalf("an oversized data frame read %d bytes past its header", consumed-frameHeaderSize)
		}

		// Round trip: the input's first bytes name the frame, the rest are
		// the payload's bits.
		var name string
		raw := in
		if len(in) > 0 {
			n := min(int(in[0])%16, len(in)-1)
			name, raw = string(in[1:1+n]), in[1+n:]
		}
		payload := make([]float64, len(raw)/8)
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		var wire bytes.Buffer
		w := decodeRing(&wire)
		sent := &frame{kind: frameData, origin: 1, pass: passReduce, epoch: 7, chunk: 5, name: name, payload: payload}
		for range 2 {
			if err := w.sendFrame(sent); err != nil {
				t.Fatal(err)
			}
		}
		if int64(wire.Len()) != 2*frameWireSize(sent) {
			t.Fatalf("sendFrame wrote %d bytes, want %d", wire.Len(), 2*frameWireSize(sent))
		}
		dec := decodeRing(nil)
		rd := bufio.NewReaderSize(&wire, 16)
		var names [2]string
		for i := range names {
			got, err := dec.readFrame(rd)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.kind != frameData || got.origin != 1 || got.pass != passReduce || got.epoch != 7 || got.chunk != 5 || got.name != name {
				t.Fatalf("frame %d header %+v, sent %+v", i, got, sent)
			}
			if len(got.payload) != len(payload) {
				t.Fatalf("frame %d: %d values, sent %d", i, len(got.payload), len(payload))
			}
			for k, v := range got.payload {
				if math.Float64bits(v) != math.Float64bits(payload[k]) {
					t.Fatalf("frame %d value %d: bits %#x, sent %#x", i, k, math.Float64bits(v), math.Float64bits(payload[k]))
				}
			}
			names[i] = got.name
			dec.putFrame(got)
		}
		if len(name) > 0 && unsafe.StringData(names[0]) != unsafe.StringData(names[1]) {
			t.Fatal("a recurring name was not interned")
		}
	})
}
