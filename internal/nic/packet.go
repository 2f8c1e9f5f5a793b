package nic

import (
	"encoding/binary"
	"fmt"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
)

// Packet is a simplified TCP/IP packet as seen by the NIC datapath: the
// ToS byte (the only header field the engines inspect, via the comparator
// of Fig. 11) and the payload bytes.
type Packet struct {
	ToS     uint8
	Payload []byte
	// Compressed marks packets whose payload was replaced by engine
	// output; the receiving NIC uses the embedded frame header to decode.
	Compressed bool
}

// WireBytes returns the packet's on-wire size including headers.
func (p Packet) WireBytes() int64 {
	return int64(len(p.Payload)) + comm.HeaderBytes
}

// frameHeaderBytes prefixes each compressed payload: the float32 count and
// the exact bit length of the compressed stream. The real hardware learns
// these from the TCP stream framing; carrying them in-band keeps each
// packet self-describing in this model.
const frameHeaderBytes = 8

// PacketizeFloats splits a float32 vector into MSS-sized packets with the
// given ToS, little-endian encoded — the host-side DMA path of Fig. 8.
func PacketizeFloats(vals []float32, tos uint8) []Packet {
	raw := frame.AppendF32s(nil, vals)
	var pkts []Packet
	for off := 0; off < len(raw); off += comm.MSS {
		hi := off + comm.MSS
		if hi > len(raw) {
			hi = len(raw)
		}
		pkts = append(pkts, Packet{ToS: tos, Payload: raw[off:hi]})
	}
	if len(pkts) == 0 {
		pkts = []Packet{{ToS: tos}}
	}
	return pkts
}

// DepacketizeFloats reassembles float32 values from uncompressed packets.
func DepacketizeFloats(pkts []Packet) ([]float32, error) {
	var raw []byte
	for _, p := range pkts {
		if p.Compressed {
			return nil, fmt.Errorf("nic: cannot depacketize compressed packet")
		}
		raw = append(raw, p.Payload...)
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("nic: payload of %d bytes is not float32-aligned", len(raw))
	}
	out := make([]float32, len(raw)/4)
	frame.F32s(out, raw)
	return out, nil
}

// NIC is the full egress/ingress datapath of Fig. 8: packets tagged
// comm.ToSCompress pass through the engines; everything else bypasses.
type NIC struct {
	CE *CompressionEngine
	DE *DecompressionEngine
}

// New returns a NIC with both engines configured for bound.
func New(bound fpcodec.Bound) *NIC {
	return &NIC{CE: NewCompressionEngine(bound), DE: NewDecompressionEngine(bound)}
}

// Egress processes outgoing packets: the comparator checks ToS at the
// first burst; matching packets have their float payload compressed and
// re-framed. Non-float-aligned tagged payloads are passed through (the
// engines only understand 32-bit lanes).
func (n *NIC) Egress(pkts []Packet) []Packet {
	out := make([]Packet, 0, len(pkts))
	for _, p := range pkts {
		if p.ToS != comm.ToSCompress || len(p.Payload)%4 != 0 || len(p.Payload) == 0 {
			out = append(out, p)
			continue
		}
		vals := make([]float32, len(p.Payload)/4)
		frame.F32s(vals, p.Payload)
		data, bits := n.CE.CompressPayload(vals)
		framed := frame.AppendU32(make([]byte, 0, frameHeaderBytes+len(data)), uint32(len(vals)))
		framed = append(frame.AppendU32(framed, uint32(bits)), data...)
		out = append(out, Packet{ToS: p.ToS, Payload: framed, Compressed: true})
	}
	return out
}

// Ingress processes incoming packets: compressed ones are decoded back to
// float payloads; others bypass to the host untouched.
func (n *NIC) Ingress(pkts []Packet) ([]Packet, error) {
	out := make([]Packet, 0, len(pkts))
	for i, p := range pkts {
		if !p.Compressed {
			out = append(out, p)
			continue
		}
		if p.ToS != comm.ToSCompress {
			return nil, fmt.Errorf("nic: packet %d compressed but not ToS-tagged", i)
		}
		if len(p.Payload) < frameHeaderBytes {
			return nil, fmt.Errorf("nic: packet %d compressed frame too short", i)
		}
		count := int(binary.LittleEndian.Uint32(p.Payload))
		bits := int(binary.LittleEndian.Uint32(p.Payload[4:]))
		if bits > 8*(len(p.Payload)-frameHeaderBytes) {
			return nil, fmt.Errorf("nic: packet %d declares %d bits with %d payload bytes",
				i, bits, len(p.Payload)-frameHeaderBytes)
		}
		vals, err := n.DE.DecompressPayload(p.Payload[frameHeaderBytes:], bits, count)
		if err != nil {
			return nil, fmt.Errorf("nic: packet %d: %w", i, err)
		}
		out = append(out, Packet{ToS: p.ToS, Payload: frame.AppendF32s(nil, vals)})
	}
	return out, nil
}

// TotalWire returns the summed wire bytes of a packet train.
func TotalWire(pkts []Packet) int64 {
	var total int64
	for _, p := range pkts {
		total += p.WireBytes()
	}
	return total
}
