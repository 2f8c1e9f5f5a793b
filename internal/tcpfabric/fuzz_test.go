package tcpfabric

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
	"inceptionn/internal/nic"
)

// fuzzSeed builds a full frame (header ++ body) for the seed corpus.
func fuzzSeed(h frameHeader, body []byte) []byte {
	hb := encodeHeader(h)
	return append(hb[:], body...)
}

// TestCorpusPinsTheWire: the checked-in corpus files are golden INCP bytes —
// the first eleven written by a generator that spelled the header layout
// out a second time, since deleted, and valid_nack_probe by hand — and the
// frame writers must reproduce the four valid ones byte for byte.
func TestCorpusPinsTheWire(t *testing.T) {
	rawBody := frame.AppendF32s(nil, []float32{1.5, -2.25})
	for name, wire := range map[string][]byte{
		"valid_raw": fuzzSeed(frameHeader{
			kind: kindData, seq: 1, tag: 7, count: 2,
			payloadLen: uint32(len(rawBody)), crc: bodyCRC(rawBody),
		}, rawBody),
		"valid_ack":          fuzzSeed(frameHeader{kind: kindAck, seq: 3}, nil),
		"valid_nack_wantraw": fuzzSeed(frameHeader{kind: kindNack, flags: flagWantRaw, seq: 4}, nil),
		"valid_nack_probe":   fuzzSeed(frameHeader{kind: kindNack, flags: flagProbe, seq: 6}, nil),
	} {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFrameDecode", name))
		if err != nil {
			t.Fatal(err)
		}
		// The corpus encoding: a version line, then []byte("<quoted>").
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte("), ")")
		want, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(wire, []byte(want)) {
			t.Errorf("%s: wrote % x\nwant % x", name, wire, want)
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the header validator and,
// when the header passes, the payload decoder the receiver would run. The
// invariants: decoding never panics, and hostile length fields are rejected
// before they can drive an allocation (an accepted data header is capped at
// maxFrameFloats/maxFrameBytes, and a compressed one cannot make the
// receiver allocate more than 16 bytes of floats per byte of body).
func FuzzFrameDecode(f *testing.F) {
	// Valid raw data frame carrying two floats.
	rawBody := frame.AppendF32s(nil, []float32{1.5, -2.25})
	f.Add(fuzzSeed(frameHeader{
		kind: kindData, seq: 1, tag: 7, count: 2,
		payloadLen: uint32(len(rawBody)), crc: bodyCRC(rawBody),
	}, rawBody))
	// Valid compressed data frame shape (body is opaque to the decoder).
	f.Add(fuzzSeed(frameHeader{
		kind: kindData, tos: 0x28, flags: flagCompressed,
		seq: 2, tag: 9, count: 16, payloadLen: 8, bitLen: 60,
		crc: bodyCRC(make([]byte, 8)),
	}, make([]byte, 8)))
	// Control frames.
	f.Add(fuzzSeed(frameHeader{kind: kindAck, seq: 3}, nil))
	f.Add(fuzzSeed(frameHeader{kind: kindNack, flags: flagWantRaw, seq: 4}, nil))
	// Hostile: payloadLen and count claim gigabytes.
	hostile := encodeHeader(frameHeader{
		kind: kindData, count: 1 << 30, payloadLen: 1 << 31,
	})
	f.Add(hostile[:])
	// Hostile: inside the caps, but no stream to hold the count.
	emptyStream := encodeHeader(frameHeader{
		kind: kindData, tos: 0x28, flags: flagCompressed, seq: 5, count: maxFrameFloats,
	})
	f.Add(emptyStream[:])
	// Hostile: raw sizing mismatch (count*4 != payloadLen).
	mismatch := encodeHeader(frameHeader{kind: kindData, count: 3, payloadLen: 8})
	f.Add(mismatch[:])
	// Bad magic, bad kind, nonzero reserved byte.
	bad := encodeHeader(frameHeader{kind: kindData})
	binary.LittleEndian.PutUint32(bad[0:], 0xDEADBEEF)
	f.Add(bad[:])
	badKind := encodeHeader(frameHeader{kind: 37})
	f.Add(badKind[:])
	reserved := encodeHeader(frameHeader{kind: kindAck})
	reserved[7] = 0xFF
	f.Add(reserved[:])
	// Truncated header.
	f.Add([]byte{0x50, 0x43, 0x4E, 0x49, 0x00})
	// Flags: a stall probe is valid; a flag on the wrong kind, two at once
	// and an undefined bit are not.
	for _, h := range []frameHeader{
		{kind: kindNack, flags: flagProbe, seq: 6},
		{kind: kindNack, flags: flagWantRaw | flagProbe, seq: 6},
		{kind: kindNack, flags: flagCompressed, seq: 6},
		{kind: kindAck, flags: flagProbe, seq: 6},
		{kind: kindData, flags: flagWantRaw, count: 2, payloadLen: 8},
		{kind: kindData, flags: flagCompressed | flagRawFallback, count: 2, payloadLen: 8},
		{kind: kindData, flags: 1 << 7, count: 2, payloadLen: 8},
	} {
		b := encodeHeader(h)
		f.Add(append(b[:], make([]byte, h.payloadLen)...))
	}

	engine := nic.NewDecompressionEngine(fpcodec.MustBound(10))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHeader(data)
		if err != nil {
			return // rejected before any allocation: the safe outcome
		}
		// Accepted headers carry one flag at most, of their own kind.
		if allowed := kindFlags[h.kind]; h.flags&^allowed != 0 || h.flags != 0 && h.flags&(h.flags-1) != 0 {
			t.Fatalf("kind %d frame accepted with flags %#x", h.kind, h.flags)
		}
		// Accepted headers must respect the hostility limits.
		if h.kind == kindData {
			if h.count > maxFrameFloats || h.payloadLen > maxFrameBytes {
				t.Fatalf("hostile lengths accepted: count=%d payloadLen=%d", h.count, h.payloadLen)
			}
			if h.flags&flagCompressed == 0 && h.payloadLen != 4*h.count {
				t.Fatalf("inconsistent raw sizing accepted: count=%d payloadLen=%d", h.count, h.payloadLen)
			}
		} else if h.payloadLen != 0 {
			t.Fatalf("control frame with body accepted: %d bytes", h.payloadLen)
		}
		body := data[frameHeaderLen:]
		if uint32(len(body)) > h.payloadLen {
			body = body[:h.payloadLen]
		}
		// The CRC guards delivery, not parsing: run the raw decoder even on
		// mismatched checksums — it must error on bad sizes, never panic.
		if h.kind == kindData && h.flags&flagCompressed == 0 {
			if err := decodeRawPayload(make([]float32, h.count), h, body); err == nil && uint32(len(body)) != 4*h.count {
				t.Fatalf("decoded a %d-byte body as %d floats", len(body), h.count)
			}
		}
		// A compressed frame goes to the node's decompression engine as
		// handleData hands it over. Whatever it decides, what it allocates
		// on the way is bounded by the body the frame actually carried:
		// eight 4-byte floats per 2-byte tag vector.
		if h.kind == kindData && h.flags&flagCompressed != 0 && uint32(len(body)) == h.payloadLen {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			vals, err := engine.DecompressPayload(body, int(h.bitLen), int(h.count))
			runtime.ReadMemStats(&after)
			if err == nil && uint32(len(vals)) != h.count {
				t.Fatalf("decoded %d floats, header said %d", len(vals), h.count)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(body))+64<<10 {
				t.Fatalf("count=%d bitLen=%d in a %d-byte body: receiver allocated %d bytes", h.count, h.bitLen, len(body), grew)
			}
		}
	})
}
