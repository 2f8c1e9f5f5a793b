package tcpfabric

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
)

// Wire frame v2 (all little-endian). The 32-byte header is followed by
// payloadLen body bytes whose CRC32-C is carried in the header, so the
// receiver detects on-wire corruption instead of trusting it.
//
//	off  field
//	  0  u32 magic      0x494E4350 ("INCP")
//	  4  u8  kind       0 data; kinds 1 (ack) and 2 (nack) are retired
//	                    and rejected, like every other kind
//	  5  u8  tos
//	  6  u8  flags      bit0 compressed; bits 1–3 are retired and
//	                    rejected, like every other bit
//	  7  u8  reserved   must be zero
//	  8  u32 seq        per-link frame sequence number
//	 12  u32 tag
//	 16  u32 count      float32 values represented
//	 20  u32 payloadLen body bytes following
//	 24  u32 bitLen     exact compressed bit count (compressed frames)
//	 28  u32 crc        CRC32-C of the body bytes
const (
	frameMagic     = 0x494E4350
	frameHeaderLen = 32
)

// kindData is the one frame kind.
const kindData = 0

// flagCompressed marks a body that is a codec bitstream; it is the one
// flag.
const flagCompressed = 1 << 0

// Hostility limits: a frame advertising more than these is rejected during
// header validation, before any allocation, so a corrupt or malicious
// length field can never trigger an OOM-sized make().
const (
	maxFrameFloats = 1 << 24 // 16M float32 = 64 MiB decoded
	maxFrameBytes  = 1 << 26 // 64 MiB on the wire
)

// viewed reports whether h's body is its floats' own memory: a plain
// frame on a little-endian host (wireIsMemory), sent from the caller's
// payload and read into the buffer it is delivered in.
func viewed(h frameHeader) bool { return wireIsMemory && h.flags&flagCompressed == 0 }

// floatBytes is the byte view of p's memory: on a little-endian host,
// frame.PutF32s(b, p) would write exactly these bytes into b.
func floatBytes(p []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 4*len(p))
}

// bodyCRC is the integrity checksum carried in every frame header.
func bodyCRC(body []byte) uint32 { return frame.Checksum(body) }

// frameHeader is the decoded fixed-size header.
type frameHeader struct {
	kind       uint8
	tos        uint8
	flags      uint8
	seq        uint32
	tag        uint32
	count      uint32
	payloadLen uint32
	bitLen     uint32
	crc        uint32
}

// encodeHeader serializes h.
func encodeHeader(h frameHeader) [frameHeaderLen]byte {
	var b [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	b[4] = h.kind
	b[5] = h.tos
	b[6] = h.flags
	binary.LittleEndian.PutUint32(b[8:], h.seq)
	binary.LittleEndian.PutUint32(b[12:], h.tag)
	binary.LittleEndian.PutUint32(b[16:], h.count)
	binary.LittleEndian.PutUint32(b[20:], h.payloadLen)
	binary.LittleEndian.PutUint32(b[24:], h.bitLen)
	binary.LittleEndian.PutUint32(b[28:], h.crc)
	return b
}

// decodeHeader parses and validates a frame header. Every anomaly — wrong
// magic, a kind other than data, a flag other than compressed, hostile
// lengths, inconsistent raw sizing, a compressed stream too short for its
// count — returns an error; the
// function never panics and never commits the caller to an allocation
// larger than maxFrameBytes, nor to one the body it carries cannot fill.
func decodeHeader(b []byte) (frameHeader, error) {
	var h frameHeader
	if len(b) < frameHeaderLen {
		return h, fmt.Errorf("tcpfabric: short header: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != frameMagic {
		return h, fmt.Errorf("tcpfabric: bad magic %#x", m)
	}
	h.kind = b[4]
	h.tos = b[5]
	h.flags = b[6]
	if b[7] != 0 {
		return h, fmt.Errorf("tcpfabric: nonzero reserved byte %#x", b[7])
	}
	h.seq = binary.LittleEndian.Uint32(b[8:])
	h.tag = binary.LittleEndian.Uint32(b[12:])
	h.count = binary.LittleEndian.Uint32(b[16:])
	h.payloadLen = binary.LittleEndian.Uint32(b[20:])
	h.bitLen = binary.LittleEndian.Uint32(b[24:])
	h.crc = binary.LittleEndian.Uint32(b[28:])

	if h.kind != kindData {
		return h, fmt.Errorf("tcpfabric: unknown frame kind %d", h.kind)
	}
	if h.flags&^flagCompressed != 0 {
		return h, fmt.Errorf("tcpfabric: unknown flags %#x", h.flags)
	}
	if h.count > maxFrameFloats {
		return h, fmt.Errorf("tcpfabric: hostile count %d", h.count)
	}
	if h.payloadLen > maxFrameBytes {
		return h, fmt.Errorf("tcpfabric: hostile payloadLen %d", h.payloadLen)
	}
	if h.flags&flagCompressed != 0 {
		if uint64(h.bitLen) > 8*uint64(h.payloadLen) {
			return h, fmt.Errorf("tcpfabric: bitLen %d exceeds body %dB", h.bitLen, h.payloadLen)
		}
		// A 32-byte frame must not be able to ask for 64 MiB of floats.
		if err := fpcodec.CheckStreamBits(int(h.count), int(h.bitLen)); err != nil {
			return h, fmt.Errorf("tcpfabric: hostile count: %w", err)
		}
	} else if h.payloadLen != 4*h.count {
		return h, fmt.Errorf("tcpfabric: raw frame %dB for %d floats", h.payloadLen, h.count)
	}
	return h, nil
}

// decodeRawPayload converts a raw (uncompressed) data frame body into the
// h.count float32 values of dst: the receive of a plain frame on a
// big-endian host, whose body is not its floats' memory. The header has
// already been validated, so the sizes are consistent; a short body or
// buffer (possible only when a caller bypasses header validation, e.g. the
// fuzzer) is an error rather than a panic.
func decodeRawPayload(dst []float32, h frameHeader, body []byte) error {
	if len(body) != int(h.payloadLen) || len(body) != 4*int(h.count) || len(dst) != int(h.count) {
		return fmt.Errorf("tcpfabric: raw body %dB for %d floats, want %d", len(body), len(dst), 4*h.count)
	}
	frame.F32s(dst, body)
	return nil
}
