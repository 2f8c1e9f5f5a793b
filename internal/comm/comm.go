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
// out and decompressed on the way in, exactly like the FPGA NIC. Through
// the in-tree CodecProcessor a compressed message is its burst-group
// stream, decoded by the receiver: straight into the caller's vector, or
// into its add, when it receives with RecvIntoCtx.
//
// Every buffer a link reuses — a lent payload, a compressed stream, a TCP
// frame body — comes from a FreeList in a Box that carries its own weak
// handle, made once, when the box is.
package comm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
	"inceptionn/internal/tensor"
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

// processInto implements intoProcessor.
func (IdentityProcessor) processInto(dst, payload []float32, tos uint8) int64 {
	copy(dst, payload)
	return 4 * int64(len(payload))
}

// CodecProcessor compresses ToSCompress-tagged payloads with the
// INCEPTIONN codec's group kernel; other traffic passes through untouched.
// It is the pure software model of the NIC engines (internal/nic provides
// the same data path with the hardware pipeline's cycle accounting).
type CodecProcessor struct {
	Bound fpcodec.Bound
}

// processSection is how many floats a compressed payload is encoded and
// decoded by at a time, through a stream on the stack of sectionBytes, and
// how many a received stream is decoded by on its way into an add. A
// stream's burst groups are independent and whole bytes, so sections of
// whole groups give the one-pass values and byte count.
const (
	processSection = 4096
	sectionBytes   = processSection/fpcodec.GroupSize*maxGroupBytes + 4
)

// maxGroupBytes is the most a burst group takes: a tag vector and eight
// verbatim lanes.
const maxGroupBytes = (fpcodec.TagVectorBits + fpcodec.GroupSize*32) / 8

// maxStreamBytes is the most the stream of n values can take: its groups
// at their most, and the one 4-byte lane store the encoder makes past its
// last group. A stream drawn at that size never grows.
func maxStreamBytes(n int) int {
	return (n+fpcodec.GroupSize-1)/fpcodec.GroupSize*maxGroupBytes + 4
}

// Process implements WireProcessor. A compressed payload's result is
// freshly allocated: the caller owns it.
func (p CodecProcessor) Process(payload []float32, tos uint8) ([]float32, int64) {
	if tos != ToSCompress {
		return payload, 4 * int64(len(payload))
	}
	out := make([]float32, len(payload))
	return out, p.processInto(out, payload, tos)
}

// processInto implements intoProcessor.
func (p CodecProcessor) processInto(dst, payload []float32, tos uint8) int64 {
	if tos != ToSCompress {
		copy(dst, payload)
		return 4 * int64(len(payload))
	}
	var stream [sectionBytes]byte
	var wire int64
	for lo := 0; lo < len(payload); lo += processSection {
		hi := min(lo+processSection, len(payload))
		data, bits := fpcodec.AppendGroups(stream[:0], 0, payload[lo:hi], p.Bound)
		if _, err := fpcodec.DecodeGroups(dst[lo:hi], data, 0, bits, p.Bound); err != nil {
			// The stream was produced by the matching encoder; failure
			// here is a programming error, not an I/O condition.
			panic(fmt.Sprintf("comm: internal codec roundtrip failed: %v", err))
		}
		wire += int64(len(data))
	}
	return wire
}

// encode writes payload's burst-group stream into buf's storage and returns
// it: what a compressed in-process message carries.
func (p CodecProcessor) encode(buf []byte, payload []float32) []byte {
	data, _ := fpcodec.AppendGroups(buf[:0], 0, payload, p.Bound)
	return data
}

// decode decodes the stream encode made of len(dst) values into dst, or
// adds them to it as tensor.Add does, a section at a time through the
// stack.
func (p CodecProcessor) decode(dst []float32, data []byte, add bool) {
	var err error
	if !add {
		_, err = fpcodec.DecodeGroups(dst, data, 0, 8*len(data), p.Bound)
	} else {
		var sec [processSection]float32
		pos := 0
		for lo := 0; lo < len(dst) && err == nil; lo += processSection {
			hi := min(lo+processSection, len(dst))
			pos, err = fpcodec.DecodeGroups(sec[:hi-lo], data, pos, 8*len(data), p.Bound)
			tensor.Add(dst[lo:hi], sec[:hi-lo])
		}
	}
	if err != nil {
		// The stream was produced by the matching encoder; failure here is
		// a programming error, not an I/O condition.
		panic(fmt.Sprintf("comm: internal codec stream failed: %v", err))
	}
}

// intoProcessor is a WireProcessor that writes what the receiver observes
// into storage the caller has: the in-tree processors.
type intoProcessor interface {
	processInto(dst, payload []float32, tos uint8) int64
}

// ProcessInto runs payload through p and writes what the receiver observes
// into dst, which has payload's length and may be payload itself; it
// returns the payload bytes that cross the wire. The in-tree processors
// write dst directly; any other takes Process and a copy.
func ProcessInto(p WireProcessor, dst, payload []float32, tos uint8) int64 {
	if q, ok := p.(intoProcessor); ok {
		return q.processInto(dst, payload, tos)
	}
	out, n := p.Process(payload, tos)
	copy(dst, out)
	return n
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

// message is one in-flight transfer of n values: either buf, the box of the
// payload the wire processor wrote, drawn from the link's lender, or
// stream, the box of a compressed payload's burst-group stream, drawn from
// the link's stream list, which the receiver decodes.
type message struct {
	buf    *Box[float32]
	stream *Box[byte]
	n      int
	tag    int
}

// Box is a buffer a FreeList hands out. It carries the weak handle the list
// keeps it by, made once, when the box is: weak.Make on a box that already
// has a handle looks it up among its span's specials, a search that grows
// with the boxes a link keeps.
type Box[T any] struct {
	Buf  []T
	self weak.Pointer[Box[T]]
}

// FreeList is one link's store of spent buffers, drawn from before
// allocating; its owner's mutex guards it. It is the module's one free
// list: both fabrics' lent payloads, the in-process fabric's compressed
// streams and the TCP fabric's frame bodies are drawn from one. A buffer
// travels in a Box that is made once, with the buffer and its weak handle,
// so keeping it again allocates nothing.
//
// It holds each box weakly: a buffer still idle when the collector runs
// is reclaimed, not kept live. A warm link allocates next to nothing, so
// the collector's heap goal is twice whatever is live at its last cycle,
// and a buffer held strongly counts twice in peak RSS: strong lists, and a
// sync.Pool per link, whose victim cache keeps a buffer through one cycle,
// measured 164–236 MB of peak RSS on hdc_ring_tcp (2 vCPUs) against
// 150–160 MB weak. Held weakly, a list saves the allocations between two
// cycles, which on a warm link are nearly all.
//
// It has no bound. It never holds more entries than its link had buffers
// in flight at once, which a pipelined step makes all of a block's chunks
// (71 for HDC's 287,253-float blocks at 4096-float chunks), and an entry
// keeps nothing alive.
type FreeList[T any] struct{ boxes []weak.Pointer[Box[T]] }

// Get returns a box whose buffer has length n: the newest kept one that is
// still alive and holds n, else a fresh one with 1/64 to spare, so that
// the blocks of one ring, which differ in length by a value, share their
// buffers. Boxes it passes over are dropped.
func (f *FreeList[T]) Get(n int) *Box[T] {
	for len(f.boxes) > 0 {
		last := len(f.boxes) - 1
		b := f.boxes[last].Value()
		f.boxes[last] = weak.Pointer[Box[T]]{}
		f.boxes = f.boxes[:last]
		if b != nil && cap(b.Buf) >= n {
			b.Buf = b.Buf[:n]
			return b
		}
	}
	b := &Box[T]{Buf: make([]T, n, n+n/64+1)}
	b.self = weak.Make(b)
	return b
}

// Put keeps the box b, which Get returned, for a later Get.
func (f *FreeList[T]) Put(b *Box[T]) { f.keep(b.self) }

// keep adds a weakly held box.
func (f *FreeList[T]) keep(w weak.Pointer[Box[T]]) {
	if w != (weak.Pointer[Box[T]]{}) {
		f.boxes = append(f.boxes, w)
	}
}

// Lender is the lending state of one directed link (CtxPeer's ownership
// rule): the payload the last receive lent out, held weakly, and the free
// list the link's later payloads are drawn from. The link's sending side
// draws and its receiver lends and reclaims, so each method takes the
// lender's lock.
type Lender struct {
	mu   sync.Mutex
	lent weak.Pointer[Box[float32]]
	free FreeList[float32]
}

// Draw returns a box of n floats for the link's next payload.
func (l *Lender) Draw(n int) *Box[float32] {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.free.Get(n)
}

// Return puts back a box Draw gave that was never lent.
func (l *Lender) Return(b *Box[float32]) {
	l.mu.Lock()
	l.free.Put(b)
	l.mu.Unlock()
}

// Reclaim takes back the payload the last receive lent out; every receive
// from the link calls it first.
func (l *Lender) Reclaim() {
	l.mu.Lock()
	l.free.keep(l.lent)
	l.lent = weak.Pointer[Box[float32]]{}
	l.mu.Unlock()
}

// Lend records b as the payload the receive in progress hands out.
func (l *Lender) Lend(b *Box[float32]) {
	l.mu.Lock()
	l.lent = b.self
	l.mu.Unlock()
}

// streamList is one in-process link's free list of compressed streams: its
// sender draws a stream to encode into, and its receiver puts the stream
// back once decoded.
type streamList struct {
	mu   sync.Mutex
	free FreeList[byte]
}

func (s *streamList) get(n int) *Box[byte] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free.Get(n)
}

func (s *streamList) put(b *Box[byte]) {
	s.mu.Lock()
	s.free.Put(b)
	s.mu.Unlock()
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
	codec *CodecProcessor // proc, when it is the in-tree codec: its messages are streams
	links [][]link        // links[src][dst]
	obs   atomic.Pointer[fabricObs]
}

// link is one directed link: its stream, its counters and the lending
// state of the payloads it carries.
type link struct {
	ch      chan message
	stats   LinkStats
	lend    Lender
	streams streamList
}

// SetRecorder attaches an observability recorder to the fabric: every
// subsequent send reports wire_bytes_raw / wire_bytes_compressed
// counters and the live compression_ratio gauge, and ToS-compressed
// traffic records a compress phase span around its encode and, when the
// receiver decodes a stream, a decompress span around that (iteration -1:
// the codec runs inside the transport, below iteration attribution). A
// nil rec detaches.
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
	f := &Fabric{n: n, proc: proc, links: make([][]link, n)}
	if c, ok := proc.(CodecProcessor); ok {
		f.codec = &c
	}
	for i := range f.links {
		f.links[i] = make([]link, n)
		for j := range f.links[i] {
			f.links[i][j].ch = make(chan message, 1024)
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
func (f *Fabric) Stats(src, dst int) *LinkStats { return &f.links[src][dst].stats }

// TotalWireBytes sums wire bytes over all links.
func (f *Fabric) TotalWireBytes() int64 {
	var total int64
	for i := range f.links {
		for j := range f.links[i] {
			total += f.links[i][j].stats.WireBytes.Load()
		}
	}
	return total
}

// CtxPeer is the one peer contract the collective algorithms in
// internal/ring, internal/mpi and internal/hierarchy run over: the
// in-process Endpoint below implements it, and so does the real-TCP node
// in internal/tcpfabric. Sends and receives take a context whose deadline
// or cancellation bounds the operation, and every anomaly —
// transport failure, expired deadline, tag mismatch, wrong length — is an
// error, never a panic.
//
// Buffer ownership, the one statement of it. A sent payload stays the
// caller's: it may be reused as soon as SendCtx returns. A payload RecvCtx
// returns is lent: it stays valid, and unchanged by traffic from any
// source, until the caller's next receive from the same source on the same
// peer, and the caller must not write it. A caller that keeps a payload
// past that point copies it. Every such payload is lent, on both fabrics,
// from one Lender per directed link: the next receive from the link takes
// the previous payload back to the link's free list, and later payloads
// are written into it — by the wire processor or the receiver's decoder
// (in-process), or read or decoded from the socket (TCP). RecvIntoCtx
// lends nothing: it writes or adds the payload into the caller's vector,
// and takes back the previous loan from its source like any receive.
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
	// RecvIntoCtx blocks for the next payload from src until ctx is done;
	// it must carry tag and len(dst) values. It writes them into dst, or
	// with add adds them to it exactly as tensor.Add(dst, payload) does.
	// Nothing is lent, and dst is unchanged on any error.
	RecvIntoCtx(ctx context.Context, src int, tag int, dst []float32, add bool) error
}

// Endpoint is one node's interface to the fabric.
type Endpoint struct {
	f  *Fabric
	id int
}

// encode runs the wire processor over payload into storage from l's lists,
// with observability attached (when a recorder is set on the fabric), and
// returns the message and the payload bytes that cross the wire. A
// ToS-compressed payload through the in-tree codec becomes its burst-group
// stream, which the receiver decodes; any other payload becomes what the
// receiver observes.
func (e *Endpoint) encode(l *link, payload []float32, tos uint8) (message, int64) {
	o := e.f.obs.Load()
	var sp obs.ActiveSpan
	if o != nil && tos == ToSCompress {
		sp = o.rec.Span(e.id, -1, obs.PhaseCompress)
	}
	m := message{n: len(payload)}
	var payloadBytes int64
	if e.f.codec != nil && tos == ToSCompress {
		m.stream = l.streams.get(maxStreamBytes(len(payload)))
		m.stream.Buf = e.f.codec.encode(m.stream.Buf, payload)
		payloadBytes = int64(len(m.stream.Buf))
	} else {
		m.buf = l.lend.Draw(len(payload))
		payloadBytes = ProcessInto(e.f.proc, m.buf.Buf, payload, tos)
	}
	sp.End()
	if o != nil {
		o.wire.Observe(4*int64(len(payload)), payloadBytes, tos == ToSCompress)
	}
	return m, payloadBytes
}

// place writes the values m carries into dst, or adds them to it, and puts
// m's storage back on l's lists. A stream is decoded here, by the
// receiver.
func (e *Endpoint) place(l *link, m message, dst []float32, add bool) {
	if m.stream == nil {
		if add {
			tensor.Add(dst, m.buf.Buf)
		} else {
			copy(dst, m.buf.Buf)
		}
		l.lend.Return(m.buf)
		return
	}
	var sp obs.ActiveSpan
	if o := e.f.obs.Load(); o != nil {
		sp = o.rec.Span(e.id, -1, obs.PhaseDecompress)
	}
	e.f.codec.decode(dst, m.stream.Buf, add)
	sp.End()
	l.streams.put(m.stream)
}

// drop puts back the storage of a message no receive delivers.
func (l *link) drop(m message) {
	if m.stream != nil {
		l.streams.put(m.stream)
	} else {
		l.lend.Return(m.buf)
	}
}

var _ CtxPeer = (*Endpoint)(nil)

// ID returns this endpoint's node id.
func (e *Endpoint) ID() int { return e.id }

// N returns the number of nodes in the fabric.
func (e *Endpoint) N() int { return e.f.n }

// SendCtx transmits payload to node dst with the given ToS, giving up with
// ctx.Err() if the (deeply buffered) stream would block past the context
// deadline. The wire processor writes what the receiver observes, or the
// codec its stream, into a buffer from the link's free lists, so the
// caller may reuse its buffer. tag must match the receiver's tag (streams
// are ordered per link, so tags serve as a protocol assertion rather than
// reordering).
func (e *Endpoint) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	l := &e.f.links[e.id][dst]
	m, payloadBytes := e.encode(l, payload, tos)
	m.tag = tag
	s := &l.stats
	select {
	case l.ch <- m:
	case <-ctx.Done():
		l.drop(m)
		s.Timeouts.Add(1)
		return fmt.Errorf("comm: send %d->%d tag %d: %w", e.id, dst, tag, ctx.Err())
	}
	s.Messages.Add(1)
	s.RawBytes.Add(4 * int64(len(payload)))
	s.PayloadBytes.Add(payloadBytes)
	s.WireBytes.Add(WireBytes(payloadBytes))
	return nil
}

// recv blocks until a message arrives from node src or ctx is done, after
// taking back the payload the last receive from src lent out, and records
// the blocked time into the link's straggler stats. The message's tag must
// equal tag; one that does not is dropped.
func (e *Endpoint) recv(ctx context.Context, src int, tag int) (*link, message, error) {
	l := &e.f.links[src][e.id]
	l.lend.Reclaim()
	s := &l.stats
	start := time.Now()
	select {
	case m := <-l.ch:
		s.ObserveRecvWait(time.Since(start).Nanoseconds())
		if m.tag != tag {
			l.drop(m)
			return nil, message{}, fmt.Errorf("comm: node %d expected tag %d from %d, got %d", e.id, tag, src, m.tag)
		}
		return l, m, nil
	case <-ctx.Done():
		s.Timeouts.Add(1)
		return nil, message{}, fmt.Errorf("comm: recv %d<-%d: %w", e.id, src, ctx.Err())
	}
}

// RecvCtx blocks until a payload arrives from node src or ctx is done. The
// message's tag must equal tag. The payload is lent until the next receive
// from src, which takes it back to the link's free list (CtxPeer); a
// stream is decoded into a buffer from that list.
func (e *Endpoint) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	l, m, err := e.recv(ctx, src, tag)
	if err != nil {
		return nil, err
	}
	buf := m.buf
	if buf == nil {
		buf = l.lend.Draw(m.n)
		e.place(l, m, buf.Buf, false)
	}
	l.lend.Lend(buf)
	return buf.Buf, nil
}

// RecvIntoCtx blocks until a payload of len(dst) values arrives from node
// src or ctx is done, and writes it into dst or adds it there (CtxPeer). A
// stream is decoded straight into dst, or a section at a time into the
// add.
func (e *Endpoint) RecvIntoCtx(ctx context.Context, src int, tag int, dst []float32, add bool) error {
	l, m, err := e.recv(ctx, src, tag)
	if err != nil {
		return err
	}
	if m.n != len(dst) {
		l.drop(m)
		return fmt.Errorf("comm: node %d tag %d: %d floats from %d, want %d", e.id, tag, m.n, src, len(dst))
	}
	e.place(l, m, dst, add)
	return nil
}
