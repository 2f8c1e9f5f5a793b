package tcpfabric

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
)

// Wire frame v2 (all little-endian). The 32-byte header is followed by
// payloadLen body bytes whose CRC32-C is carried in the header, so the
// receiver can detect on-wire corruption and NACK the frame instead of
// trusting it.
//
//	off  field
//	  0  u32 magic      0x494E4350 ("INCP")
//	  4  u8  kind       0 data, 1 ack, 2 nack
//	  5  u8  tos
//	  6  u8  flags      bit0 compressed, bit1 raw-fallback (data frames,
//	                    at most one); bit2 want-raw, bit3 probe (NACKs, at
//	                    most one); every other bit, and any flag on an
//	                    ACK, is rejected
//	  7  u8  reserved   must be zero
//	  8  u32 seq        per-link frame sequence number
//	 12  u32 tag
//	 16  u32 count      float32 values represented (data frames)
//	 20  u32 payloadLen body bytes following
//	 24  u32 bitLen     exact compressed bit count (compressed frames)
//	 28  u32 crc        CRC32-C of the body bytes
const (
	frameMagic     = 0x494E4350
	frameHeaderLen = 32
)

// Frame kinds.
const (
	kindData = 0
	kindAck  = 1
	kindNack = 2
)

// Frame flags.
const (
	flagCompressed  = 1 << 0 // body is a codec bitstream
	flagRawFallback = 1 << 1 // data resent uncompressed after a decode failure
	flagWantRaw     = 1 << 2 // NACK requests the retransmission uncompressed
	flagProbe       = 1 << 3 // stall NACK with no evidence of loss: resend only a frame that left damaged
)

// kindFlags are the flags each frame kind may carry, one at a time.
var kindFlags = [...]uint8{
	kindData: flagCompressed | flagRawFallback,
	kindAck:  0,
	kindNack: flagWantRaw | flagProbe,
}

// Hostility limits: a frame advertising more than these is rejected during
// header validation, before any allocation, so a corrupt or malicious
// length field can never trigger an OOM-sized make().
const (
	maxFrameFloats = 1 << 24 // 16M float32 = 64 MiB decoded
	maxFrameBytes  = 1 << 26 // 64 MiB on the wire
)

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
// magic, unknown kind, hostile lengths, inconsistent raw sizing, a
// compressed stream too short for its count — returns an error; the
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

	if int(h.kind) >= len(kindFlags) {
		return h, fmt.Errorf("tcpfabric: unknown frame kind %d", h.kind)
	}
	if h.flags&^kindFlags[h.kind] != 0 || bits.OnesCount8(h.flags) > 1 {
		return h, fmt.Errorf("tcpfabric: flags %#x on a kind-%d frame", h.flags, h.kind)
	}
	switch h.kind {
	case kindAck, kindNack:
		if h.payloadLen != 0 {
			return h, fmt.Errorf("tcpfabric: control frame with %d-byte body", h.payloadLen)
		}
		return h, nil
	case kindData:
	default:
		return h, fmt.Errorf("tcpfabric: unknown frame kind %d", h.kind)
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
// h.count float32 values of dst. The header has already been validated, so
// the sizes are consistent; a short body or buffer (possible only when a
// caller bypasses header validation, e.g. the fuzzer) is an error rather
// than a panic.
func decodeRawPayload(dst []float32, h frameHeader, body []byte) error {
	if len(body) != int(h.payloadLen) || len(body) != 4*int(h.count) || len(dst) != int(h.count) {
		return fmt.Errorf("tcpfabric: raw body %dB for %d floats, want %d", len(body), len(dst), 4*h.count)
	}
	frame.F32s(dst, body)
	return nil
}
