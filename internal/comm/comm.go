// Package comm provides the in-process cluster fabric the distributed
// training algorithms run on: N nodes exchanging float32 payloads over
// reliable, ordered point-to-point streams, with TCP/IP-style wire-byte
// accounting and the paper's ToS-based per-packet compression opt-in.
//
// Every outgoing payload passes through a WireProcessor — the software
// model of the NIC datapath. The default processor forwards payloads
// verbatim and charges packetized TCP/IP wire bytes. A compressing
// processor (either the reference codec here or the bit-exact engine model
// in internal/nic) inspects the ToS byte: packets tagged ToSCompress
// (0x28, as in the paper's Sec. VI-B) are lossily compressed on the way
// out and decompressed on the way in, exactly like the FPGA NIC.
package comm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// ToSCompress is the reserved Type-of-Service value that marks a packet
// for in-NIC compression (the paper uses 0x28).
const ToSCompress uint8 = 0x28

// TCP/IP-over-Ethernet framing constants used for wire-byte accounting.
const (
	// MTU is the Ethernet maximum transmission unit.
	MTU = 1500
	// HeaderBytes is the per-packet overhead: Ethernet (14) + IPv4 (20) +
	// TCP (20) headers plus Ethernet FCS (4).
	HeaderBytes = 58
	// MSS is the TCP payload capacity of one packet.
	MSS = MTU - 40
)

// WireBytes returns the on-wire byte count for a TCP payload of n bytes,
// including per-packet header overhead. Zero-byte payloads still cost one
// packet (the paper's observation that compression does not reduce packet
// count below the header floor).
func WireBytes(n int64) int64 {
	packets := (n + MSS - 1) / MSS
	if packets == 0 {
		packets = 1
	}
	return n + packets*HeaderBytes
}

// WireProcessor models the NIC datapath applied to every sent payload.
type WireProcessor interface {
	// Process transforms an outgoing payload: it returns the payload the
	// receiver observes (lossy if compressed) and the payload bytes that
	// cross the wire (before per-packet header accounting).
	Process(payload []float32, tos uint8) (received []float32, payloadBytes int64)
}

// IdentityProcessor forwards payloads unmodified at full float32 size.
type IdentityProcessor struct{}

// Process implements WireProcessor.
func (IdentityProcessor) Process(payload []float32, tos uint8) ([]float32, int64) {
	return payload, 4 * int64(len(payload))
}

// CodecProcessor compresses ToSCompress-tagged payloads with the
// INCEPTIONN codec's group kernel; other traffic passes through untouched.
// It is the pure software model of the NIC engines (internal/nic provides
// the same data path with the hardware pipeline's cycle accounting).
type CodecProcessor struct {
	Bound fpcodec.Bound
}

// streamScratch recycles the compressed stream a Process call builds and
// consumes: the receiver only ever sees the decompressed payload.
var streamScratch = sync.Pool{New: func() any { return new([]byte) }}

// Process implements WireProcessor. The returned payload is freshly
// allocated: the receiver owns it.
func (p CodecProcessor) Process(payload []float32, tos uint8) ([]float32, int64) {
	if tos != ToSCompress {
		return payload, 4 * int64(len(payload))
	}
	scratch := streamScratch.Get().(*[]byte)
	data, bits := fpcodec.AppendGroups((*scratch)[:0], 0, payload, p.Bound)
	out := make([]float32, len(payload))
	if _, err := fpcodec.DecodeGroups(out, data, 0, bits, p.Bound); err != nil {
		// The stream was produced by the matching encoder; failure here is
		// a programming error, not an I/O condition.
		panic(fmt.Sprintf("comm: internal codec roundtrip failed: %v", err))
	}
	*scratch = data
	streamScratch.Put(scratch)
	return out, int64(len(data))
}

// LinkStats accumulates traffic counters for one directed link. Beyond the
// byte accounting, it counts receive timeouts and receive-wait time, which
// together expose stragglers and dead links.
type LinkStats struct {
	Messages     atomic.Int64
	PayloadBytes atomic.Int64 // post-compression payload bytes
	WireBytes    atomic.Int64 // payload + packet headers
	RawBytes     atomic.Int64 // pre-compression payload bytes (4·floats)

	Timeouts atomic.Int64 // receive deadlines that expired

	// Straggler detection: cumulative and peak nanoseconds a receiver
	// spent blocked waiting on this link.
	RecvWaitNanos    atomic.Int64
	MaxRecvWaitNanos atomic.Int64
}

// ObserveRecvWait records d nanoseconds of receiver blocking on the link,
// updating both the cumulative total and the peak.
func (s *LinkStats) ObserveRecvWait(d int64) {
	s.RecvWaitNanos.Add(d)
	for {
		cur := s.MaxRecvWaitNanos.Load()
		if d <= cur || s.MaxRecvWaitNanos.CompareAndSwap(cur, d) {
			return
		}
	}
}

// message is one in-flight transfer.
type message struct {
	payload []float32
	tag     int
}

// WireMeter is the wire-byte accounting every fabric reports through — this
// package's in-process Fabric and tcpfabric's cluster: three series on one
// recorder, their handles resolved once so the send path pays atomic adds.
type WireMeter struct {
	raw        *obs.Counter // wire_bytes_raw: pre-compression payload bytes, all traffic
	compressed *obs.Counter // wire_bytes_compressed: post-codec payload bytes of ToS-compressed traffic
	ratio      *obs.Gauge   // compression_ratio: raw/compressed over ToS-compressed traffic

	// Running totals behind the ratio gauge (compressed-tagged traffic only).
	compRawB atomic.Int64
	compOutB atomic.Int64
}

// NewWireMeter resolves the meter's series on rec; a nil rec gives a nil
// meter, whose Observe is a no-op.
func NewWireMeter(rec *obs.Recorder) *WireMeter {
	if rec == nil {
		return nil
	}
	return &WireMeter{
		raw:        rec.Counter("wire_bytes_raw"),
		compressed: rec.Counter("wire_bytes_compressed"),
		ratio:      rec.Gauge("compression_ratio"),
	}
}

// Observe accounts one frame of rawBytes of floats that crossed the wire
// as outBytes.
func (m *WireMeter) Observe(rawBytes, outBytes int64, compressed bool) {
	if m == nil {
		return
	}
	m.raw.Add(rawBytes)
	if !compressed {
		return
	}
	m.compressed.Add(outBytes)
	r := m.compRawB.Add(rawBytes)
	c := m.compOutB.Add(outBytes)
	if c > 0 {
		m.ratio.Set(float64(r) / float64(c))
	}
}

// fabricObs is what SetRecorder attaches: the recorder for codec spans and
// the meter on it, behind one atomic pointer load on the send path.
type fabricObs struct {
	rec  *obs.Recorder
	wire *WireMeter
}

// Fabric connects n nodes with reliable ordered streams and a shared
// WireProcessor.
type Fabric struct {
	n     int
	proc  WireProcessor
	chans [][]chan message // chans[src][dst]
	stats [][]*LinkStats
	obs   atomic.Pointer[fabricObs]
}

// SetRecorder attaches an observability recorder to the fabric: every
// subsequent send reports wire_bytes_raw / wire_bytes_compressed
// counters and the live compression_ratio gauge, and ToS-compressed
// sends record a compress phase span (iteration -1: the codec runs
// inside the transport, below iteration attribution). A nil rec detaches.
func (f *Fabric) SetRecorder(rec *obs.Recorder) {
	if rec == nil {
		f.obs.Store(nil)
		return
	}
	f.obs.Store(&fabricObs{rec: rec, wire: NewWireMeter(rec)})
}

// NewFabric creates a fabric of n nodes using proc (nil for identity).
// Streams are deeply buffered, modelling asynchronous sends (MPI_Isend):
// a send never blocks unless the peer is pathologically far behind.
func NewFabric(n int, proc WireProcessor) *Fabric {
	if n < 1 {
		panic("comm: fabric needs at least one node")
	}
	if proc == nil {
		proc = IdentityProcessor{}
	}
	f := &Fabric{n: n, proc: proc}
	f.chans = make([][]chan message, n)
	f.stats = make([][]*LinkStats, n)
	for i := 0; i < n; i++ {
		f.chans[i] = make([]chan message, n)
		f.stats[i] = make([]*LinkStats, n)
		for j := 0; j < n; j++ {
			f.chans[i][j] = make(chan message, 1024)
			f.stats[i][j] = &LinkStats{}
		}
	}
	return f
}

// N returns the number of nodes.
func (f *Fabric) N() int { return f.n }

// Endpoint returns node id's handle on the fabric.
func (f *Fabric) Endpoint(id int) *Endpoint {
	if id < 0 || id >= f.n {
		panic(fmt.Sprintf("comm: endpoint id %d out of range [0,%d)", id, f.n))
	}
	return &Endpoint{f: f, id: id}
}

// Stats returns the traffic counters of the directed link src→dst.
func (f *Fabric) Stats(src, dst int) *LinkStats { return f.stats[src][dst] }

// TotalWireBytes sums wire bytes over all links.
func (f *Fabric) TotalWireBytes() int64 {
	var total int64
	for i := range f.stats {
		for j := range f.stats[i] {
			total += f.stats[i][j].WireBytes.Load()
		}
	}
	return total
}

// CtxPeer is the one peer contract the collective algorithms in
// internal/ring, internal/mpi and internal/hierarchy run over: the
// in-process Endpoint below implements it, and so does the real-TCP node
// in internal/tcpfabric. Sends and receives take a context whose deadline
// or cancellation bounds the operation, and every anomaly —
// transport failure, expired deadline, tag mismatch — is an error, never a
// panic.
//
// Buffer ownership, the one statement of it. A sent payload stays the
// caller's: it may be reused as soon as SendCtx returns. A received payload
// is lent: it stays valid, and unchanged by traffic from any source, until
// the caller's next receive from the same source on the same peer, and the
// caller must not write it. A caller that keeps a payload past that point
// copies it. The TCP node takes the previous payload back on the next
// receive from its link and decodes later frames into it; the in-process
// Endpoint hands out fresh slices.
type CtxPeer interface {
	// ID returns this node's id in [0, N).
	ID() int
	// N returns the number of nodes.
	N() int
	// SendCtx transmits payload to dst with the given ToS and tag,
	// honouring ctx cancellation. The caller may reuse payload as soon as
	// it returns.
	SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error
	// RecvCtx blocks for the next payload from src until ctx is done. A
	// tag mismatch is a protocol error, returned rather than panicked. The
	// payload is lent until the next receive from src.
	RecvCtx(ctx context.Context, src int, tag int) ([]float32, error)
}

// Endpoint is one node's interface to the fabric.
type Endpoint struct {
	f  *Fabric
	id int
}

// process runs the wire processor with observability attached (when a
// recorder is set on the fabric).
func (e *Endpoint) process(payload []float32, tos uint8) ([]float32, int64) {
	o := e.f.obs.Load()
	if o == nil {
		return e.f.proc.Process(payload, tos)
	}
	var sp obs.ActiveSpan
	if tos == ToSCompress {
		sp = o.rec.Span(e.id, -1, obs.PhaseCompress)
	}
	recv, payloadBytes := e.f.proc.Process(payload, tos)
	if tos == ToSCompress {
		sp.End()
	}
	o.wire.Observe(4*int64(len(payload)), payloadBytes, tos == ToSCompress)
	return recv, payloadBytes
}

var _ CtxPeer = (*Endpoint)(nil)

// ID returns this endpoint's node id.
func (e *Endpoint) ID() int { return e.id }

// N returns the number of nodes in the fabric.
func (e *Endpoint) N() int { return e.f.n }

// SendCtx transmits payload to node dst with the given ToS, giving up with
// ctx.Err() if the (deeply buffered) stream would block past the context
// deadline. The payload is copied through the wire processor, so the
// caller may reuse its buffer. tag must match the receiver's RecvCtx tag
// (streams are ordered per link, so tags serve as a protocol assertion
// rather than reordering).
func (e *Endpoint) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	recv, payloadBytes := e.process(payload, tos)
	if len(payload) > 0 && len(recv) > 0 && &recv[0] == &payload[0] {
		// Identity path: copy so sender buffer reuse cannot race receiver.
		recv = append([]float32(nil), payload...)
	}
	s := e.f.stats[e.id][dst]
	select {
	case e.f.chans[e.id][dst] <- message{payload: recv, tag: tag}:
	case <-ctx.Done():
		s.Timeouts.Add(1)
		return fmt.Errorf("comm: send %d->%d tag %d: %w", e.id, dst, tag, ctx.Err())
	}
	s.Messages.Add(1)
	s.RawBytes.Add(4 * int64(len(payload)))
	s.PayloadBytes.Add(payloadBytes)
	s.WireBytes.Add(WireBytes(payloadBytes))
	return nil
}

// RecvCtx blocks until a payload arrives from node src or ctx is done,
// recording the blocked time into the link's straggler stats. The
// message's tag must equal tag.
func (e *Endpoint) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	s := e.f.stats[src][e.id]
	start := time.Now()
	select {
	case m := <-e.f.chans[src][e.id]:
		s.ObserveRecvWait(time.Since(start).Nanoseconds())
		if m.tag != tag {
			return nil, fmt.Errorf("comm: node %d expected tag %d from %d, got %d", e.id, tag, src, m.tag)
		}
		return m.payload, nil
	case <-ctx.Done():
		s.Timeouts.Add(1)
		return nil, fmt.Errorf("comm: recv %d<-%d: %w", e.id, src, ctx.Err())
	}
}
