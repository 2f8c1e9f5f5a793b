// Package nic models the paper's FPGA NIC datapath (Figs. 8–10): a
// Compression Engine and a Decompression Engine inserted between the
// packet DMA and the 10G Ethernet MACs, processing packets in 256-bit AXI
// bursts at 100 MHz.
//
// The Compression Engine inspects the ToS field of each packet at the
// first burst; packets tagged 0x28 have their payload routed through a
// Compression Unit of eight parallel Compression Blocks (CBs), each
// encoding one 32-bit float per cycle into a {0, 8, 16, 32}-bit vector
// plus a 2-bit tag. An Alignment Unit concatenates the eight variable-size
// vectors behind the 16-bit tag word, producing 16–272 bits per input
// burst, and re-packs the result into outgoing 256-bit bursts.
//
// The Decompression Engine mirrors this with a 512-bit Burst Buffer (a
// compressed group may straddle two bursts), a Tag Decoder that computes
// the eight lane sizes, and eight Decompression Blocks (DBs).
//
// The engines here are bit-exact against the reference stream codec in
// internal/fpcodec (cross-checked by tests) and additionally account
// cycles, giving the latency/throughput numbers used by the simulator.
package nic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// Hardware constants from the paper's Sec. VI/VII.
const (
	// BurstBits is the AXI-stream width: bits delivered per cycle.
	BurstBits = 256
	// BurstBytes is the burst width in bytes.
	BurstBytes = BurstBits / 8
	// LanesPerBurst is the number of CBs/DBs: 32-bit values per burst.
	LanesPerBurst = BurstBits / 32
	// ClockHz is the engine clock: 100 MHz.
	ClockHz = 100_000_000
)

// CompressionEngine is the burst-level compressor (paper Fig. 9). The data
// path is fpcodec's group kernel — one call per payload; the cycle model is
// accounting around it: one cycle per input burst of eight values.
type CompressionEngine struct {
	Bound fpcodec.Bound
	// Obs, when set, accumulates the engine's burst/size counters
	// (nic_compress_bursts, nic_compress_in_bytes, nic_compress_out_bits)
	// — the same registry schema measured runs export.
	Obs *obs.Recorder

	out    []byte // CompressPayload's storage, reused call to call
	cycles atomic.Int64
}

// NewCompressionEngine returns an engine with the given error bound.
func NewCompressionEngine(bound fpcodec.Bound) *CompressionEngine {
	return &CompressionEngine{Bound: bound}
}

// Cycles returns the total engine cycles consumed so far.
func (e *CompressionEngine) Cycles() int64 { return e.cycles.Load() }

// CompressInto runs a full packet payload (a float32 vector) through the
// engine, writing the compressed byte stream over dst's storage (grown if
// it does not suffice), and returns that stream and its exact bit length.
// The engine is flushed per packet (hardware emits the final partial burst
// zero-padded when the packet ends). It keeps no state between calls but
// the cycle counter, so one engine serves concurrent senders.
func (e *CompressionEngine) CompressInto(dst []byte, payload []float32) (data []byte, bits int) {
	data, bits = fpcodec.AppendGroups(dst[:0], 0, payload, e.Bound)
	bursts := CompressionCycles(len(payload))
	e.cycles.Add(bursts)
	if e.Obs != nil {
		e.Obs.Counter("nic_compress_bursts").Add(bursts)
		e.Obs.Counter("nic_compress_in_bytes").Add(4 * int64(len(payload)))
		e.Obs.Counter("nic_compress_out_bits").Add(int64(bits))
	}
	return data, bits
}

// CompressPayload is CompressInto the engine's own storage: the returned
// stream is valid until the next call, and calls must not overlap.
func (e *CompressionEngine) CompressPayload(payload []float32) (data []byte, bits int) {
	e.out, bits = e.CompressInto(e.out, payload)
	return e.out, bits
}

// DecompressionEngine is the burst-level decompressor (paper Fig. 10); like
// the compressor, accounting around one kernel call, and safe for
// concurrent use.
type DecompressionEngine struct {
	Bound fpcodec.Bound
	// Obs, when set, accumulates nic_decompress_cycles and
	// nic_decompress_out_bytes.
	Obs *obs.Recorder

	cycles atomic.Int64
}

// NewDecompressionEngine returns an engine with the given error bound.
func NewDecompressionEngine(bound fpcodec.Bound) *DecompressionEngine {
	return &DecompressionEngine{Bound: bound}
}

// Cycles returns the total engine cycles consumed so far.
func (e *DecompressionEngine) Cycles() int64 { return e.cycles.Load() }

// DecompressInto decodes a compressed packet payload back into count
// float32 values, written over dst's storage when it holds count values
// (else into a fresh slice), and returns them. The Burst Buffer semantics —
// a compressed group may straddle two 256-bit bursts, so the decoder holds
// up to 512 bits before emitting — cost one cycle per produced output burst
// plus one fill cycle. count comes off the wire: a stream too short to hold
// it is rejected before any value is allocated or written.
func (e *DecompressionEngine) DecompressInto(dst []float32, data []byte, bits, count int) ([]float32, error) {
	if err := fpcodec.CheckStreamBits(count, bits); err != nil {
		return nil, fmt.Errorf("nic: %w", err)
	}
	if dst == nil || cap(dst) < count {
		dst = make([]float32, count)
	}
	out := dst[:count]
	if _, err := fpcodec.DecodeGroups(out, data, 0, bits, e.Bound); err != nil {
		return nil, fmt.Errorf("nic: %w", err)
	}
	cycles := CompressionCycles(count) + 1 // one per output burst, and the initial Burst Buffer fill
	e.cycles.Add(cycles)
	if e.Obs != nil {
		e.Obs.Counter("nic_decompress_cycles").Add(cycles)
		e.Obs.Counter("nic_decompress_out_bytes").Add(4 * int64(count))
	}
	return out, nil
}

// DecompressPayload is DecompressInto a fresh slice: the caller owns the
// result.
func (e *DecompressionEngine) DecompressPayload(data []byte, bits, count int) ([]float32, error) {
	return e.DecompressInto(nil, data, bits, count)
}

// CompressionCycles returns the cycles needed to compress n float32 values
// (one per input burst), without running data through an engine.
func CompressionCycles(n int) int64 {
	return int64((n + LanesPerBurst - 1) / LanesPerBurst)
}

// EngineSeconds converts engine cycles to seconds at the 100 MHz clock.
func EngineSeconds(cycles int64) float64 {
	return float64(cycles) / ClockHz
}

// Processor is a comm.WireProcessor backed by the hardware engine models:
// the full NIC datapath of Fig. 8. Payloads tagged comm.ToSCompress are
// compressed by a CompressionEngine on the sender NIC and decompressed by
// a DecompressionEngine on the receiver NIC; all other traffic bypasses
// the engines, exactly as the ToS comparator in the paper routes packets.
type Processor struct {
	Bound fpcodec.Bound
	// Obs, when set, is handed to the engines so every processed payload
	// lands in the nic_* burst/size counters, plus the datapath totals
	// nic_offload_payloads and nic_offload_bypass.
	Obs *obs.Recorder
}

// streamScratch recycles the compressed stream a Processor call builds and
// consumes: the receiver only ever sees the decompressed payload.
var streamScratch = sync.Pool{New: func() any { return new([]byte) }}

// Process implements comm.WireProcessor.
func (p Processor) Process(payload []float32, tos uint8) ([]float32, int64) {
	if tos != comm.ToSCompress {
		p.Obs.Counter("nic_offload_bypass").Add(1)
		return payload, 4 * int64(len(payload))
	}
	p.Obs.Counter("nic_offload_payloads").Add(1)
	ce := CompressionEngine{Bound: p.Bound, Obs: p.Obs}
	scratch := streamScratch.Get().(*[]byte)
	data, bits := ce.CompressInto(*scratch, payload)
	de := DecompressionEngine{Bound: p.Bound, Obs: p.Obs}
	out, err := de.DecompressPayload(data, bits, len(payload))
	if err != nil {
		panic(fmt.Sprintf("nic: engine roundtrip failed: %v", err))
	}
	*scratch = data
	streamScratch.Put(scratch)
	// On the wire the payload occupies whole bytes of compressed stream.
	return out, int64(len(data))
}

var _ comm.WireProcessor = Processor{}
