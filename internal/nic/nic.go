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
	"sync/atomic"

	"inceptionn/internal/fpcodec"
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
	e.cycles.Add(CompressionCycles(len(payload)))
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
	e.cycles.Add(CompressionCycles(count) + 1) // one per output burst, and the initial Burst Buffer fill
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
