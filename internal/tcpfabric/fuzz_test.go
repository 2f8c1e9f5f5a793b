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

// corpusFile reads one checked-in FuzzFrameDecode corpus file's bytes.
func corpusFile(t *testing.T, name string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFrameDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus encoding: a version line, then []byte("<quoted>").
	quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte("), ")")
	b, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(b)
}

// rawSeed and compressedSeed are the two valid data frames of the seed
// corpus.
func rawSeed() []byte {
	rawBody := frame.AppendF32s(nil, []float32{1.5, -2.25})
	return fuzzSeed(frameHeader{
		kind: kindData, seq: 1, tag: 7, count: 2,
		payloadLen: uint32(len(rawBody)), crc: bodyCRC(rawBody),
	}, rawBody)
}

func compressedSeed() []byte {
	return fuzzSeed(frameHeader{
		kind: kindData, tos: 0x28, flags: flagCompressed,
		seq: 2, tag: 9, count: 16, payloadLen: 8, bitLen: 60,
		crc: bodyCRC(make([]byte, 8)),
	}, make([]byte, 8))
}

// TestCorpusPinsTheWire: the checked-in corpus files are golden INCP bytes,
// written by a generator that spelled the header layout out a second
// time, since deleted, and by hand. The frame writers must reproduce the
// two data frames byte for byte, and decodeHeader must reject the three
// control frames of the retired in-stream ARQ — an ACK, a want-raw NACK
// and a probe NACK — which are otherwise well-formed.
func TestCorpusPinsTheWire(t *testing.T) {
	for name, wire := range map[string][]byte{
		"valid_raw":        rawSeed(),
		"valid_compressed": compressedSeed(),
	} {
		if want := corpusFile(t, name); !bytes.Equal(wire, want) {
			t.Errorf("%s: wrote % x\nwant % x", name, wire, want)
		}
	}
	for _, name := range []string{"valid_ack", "valid_nack_wantraw", "valid_nack_probe"} {
		if h, err := decodeHeader(corpusFile(t, name)); err == nil {
			t.Errorf("%s: retired control frame accepted as %+v", name, h)
		}
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the header validator and,
// when the header passes, the payload decoder the receiver would run. The
// invariants: decoding never panics, only data frames with no flag but
// compressed pass, and hostile length fields are rejected before they can
// drive an allocation (an accepted header is capped at
// maxFrameFloats/maxFrameBytes, and a compressed one cannot make the
// receiver allocate more than 16 bytes of floats per byte of body).
func FuzzFrameDecode(f *testing.F) {
	// Valid raw data frame carrying two floats.
	f.Add(rawSeed())
	// Valid compressed data frame shape (body is opaque to the decoder).
	f.Add(compressedSeed())
	// Retired control frames: kind 1 (ack) and kind 2 (nack, want-raw).
	f.Add(fuzzSeed(frameHeader{kind: 1, seq: 3}, nil))
	f.Add(fuzzSeed(frameHeader{kind: 2, flags: 1 << 2, seq: 4}, nil))
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
	reserved := encodeHeader(frameHeader{kind: kindData})
	reserved[7] = 0xFF
	f.Add(reserved[:])
	// Truncated header.
	f.Add([]byte{0x50, 0x43, 0x4E, 0x49, 0x00})
	// Flags: the retired bits 1–3 (raw fallback, want-raw, probe), alone,
	// beside compressed, and on a retired probe NACK, and an undefined bit
	// are rejected; a raw frame at the last sequence number is valid.
	for _, h := range []frameHeader{
		{kind: kindData, flags: 1 << 1, count: 2, payloadLen: 8},
		{kind: kindData, flags: 1 << 2, count: 2, payloadLen: 8},
		{kind: kindData, flags: 1 << 3, count: 2, payloadLen: 8},
		{kind: kindData, flags: flagCompressed | 1<<1, count: 2, payloadLen: 8},
		{kind: kindData, flags: 1 << 7, count: 2, payloadLen: 8},
		{kind: 2, flags: 1 << 3, seq: 6},
		{kind: kindData, seq: 1<<32 - 1, count: 2, payloadLen: 8},
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
		// Accepted headers are data frames, compressed or not.
		if h.kind != kindData || h.flags&^flagCompressed != 0 {
			t.Fatalf("kind %d frame accepted with flags %#x", h.kind, h.flags)
		}
		// Accepted headers must respect the hostility limits.
		if h.count > maxFrameFloats || h.payloadLen > maxFrameBytes {
			t.Fatalf("hostile lengths accepted: count=%d payloadLen=%d", h.count, h.payloadLen)
		}
		if h.flags&flagCompressed == 0 && h.payloadLen != 4*h.count {
			t.Fatalf("inconsistent raw sizing accepted: count=%d payloadLen=%d", h.count, h.payloadLen)
		}
		body := data[frameHeaderLen:]
		if uint32(len(body)) > h.payloadLen {
			body = body[:h.payloadLen]
		}
		// The CRC guards delivery, not parsing: run the raw decoder even on
		// mismatched checksums — it must error on bad sizes, never panic.
		if h.flags&flagCompressed == 0 {
			if err := decodeRawPayload(make([]float32, h.count), h, body); err == nil && uint32(len(body)) != 4*h.count {
				t.Fatalf("decoded a %d-byte body as %d floats", len(body), h.count)
			}
		}
		// A compressed frame goes to the node's decompression engine as
		// handleData hands it over. Whatever it decides, what it allocates
		// on the way is bounded by the body the frame actually carried:
		// eight 4-byte floats per 2-byte tag vector.
		if h.flags&flagCompressed != 0 && uint32(len(body)) == h.payloadLen {
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
