// Package tcpfabric is a real-TCP implementation of the cluster transport:
// nodes connect over loopback TCP sockets and exchange the same framed
// float32 payloads as the in-process fabric in internal/comm, implementing
// comm.CtxPeer so the ring exchange (Algorithm 1) runs over genuine sockets.
//
// The NIC datapath is applied on the *send* side exactly where the paper's
// hardware sits — between the host and the wire: payloads tagged with
// ToS 0x28 are compressed by the engine model and the *compressed bytes*
// travel over the socket; the receiving side's ingress engine reconstructs
// the floats. Untagged traffic ships raw IEEE-754 bytes.
//
// Each float crosses between host and bytes once per direction. A send
// encodes its frame once, into a body drawn from the link's free list, and
// every attempt writes those bytes; the body goes back to the list when the
// frame is cumulatively ACKed and no attempt is still writing it. The
// reader reads every body into the link's one read buffer and decodes it
// into a float buffer from the link's free list, which it lends to the
// caller (comm.CtxPeer states the ownership rule).
//
// The transport is fault tolerant. Every data frame carries a per-link
// sequence number and a CRC32-C of its body (see frame.go for the wire
// layout). The receiver verifies, dedupes, and delivers in order, ACKing
// progress cumulatively; a corrupt frame, a sequence gap, or a receive
// stall triggers a NACK that makes the sender retransmit from its
// per-link buffer, with capped attempts. A compressed frame whose CRC
// validates but whose codec bitstream fails to decode is re-requested as
// a *raw* frame (flagWantRaw): training degrades to an uncompressed hop
// instead of dying — observable via DegradedFrames. Fault injection for
// chaos testing plugs in through ClusterOptions.Chaos (internal/fault);
// faults apply to the data plane only, control frames ride clean TCP.
//
// A stall NACK is a question, not a demand. While nothing at or past the
// expected sequence has arrived on the link, the receiver has no evidence
// of loss and marks its stall NACK a probe (flagProbe). The sender ignores
// a probe for a frame whose last attempt it wrote intact — not dropped,
// corrupted or truncated by chaos — because TCP delivers the bytes it
// accepted: the frame is merely still on its way. Gap, CRC, codec
// (want-raw) and refused-stash NACKs, and a stall NACK once a later frame
// has arrived, still retransmit, so drops, partitions, delays and
// corruption heal as before while a clean link never resends.
package tcpfabric

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"bufio"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
	"inceptionn/internal/nic"
	"inceptionn/internal/obs"
)

// Errors surfaced by the fault-tolerant paths. ErrClosed and
// ErrRetriesExhausted wrap the fault package's transport sentinels, so a
// grader matches them with errors.Is(err, fault.ErrClosed) and
// errors.Is(err, fault.ErrMaxRetries).
var (
	// ErrClosed marks an operation on a closed cluster.
	ErrClosed = fmt.Errorf("tcpfabric: closed: %w", fault.ErrClosed)
	// ErrSendWindow marks a send that would overflow the retransmit
	// buffer (the peer stopped acknowledging).
	ErrSendWindow = errors.New("tcpfabric: send window overflow")
	// ErrRetriesExhausted marks a frame whose retransmission budget ran
	// out.
	ErrRetriesExhausted = fmt.Errorf("tcpfabric: retries exhausted: %w", fault.ErrMaxRetries)
)

// RetryPolicy tunes the recovery protocol.
type RetryPolicy struct {
	// ProbeRTO is the initial receiver-side stall timeout before it
	// probes the sender with a NACK; it doubles per probe up to maxRTO.
	// Default 25ms.
	ProbeRTO time.Duration
	// MaxAttempts caps transmissions per frame, first try included.
	// Default 32.
	MaxAttempts int
}

const (
	// maxRTO caps the probe backoff.
	maxRTO = 400 * time.Millisecond
	// sendWindow caps unacknowledged frames per link.
	sendWindow = 4096
	// probeJitter spreads each probe interval uniformly over
	// [interval*(1-probeJitter), interval]: after a partition heals, every
	// stalled receiver in the cluster is backing off on the same schedule,
	// and without jitter their NACK probes re-synchronize into periodic
	// retry storms that keep colliding on the recovering links.
	probeJitter = 0.25
)

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.ProbeRTO <= 0 {
		r.ProbeRTO = 25 * time.Millisecond
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 32
	}
	return r
}

// jitterRTO draws the actual wait for one probe interval: uniform over
// [rto*(1-probeJitter), rto], keyed deterministically on (node, peer,
// probe count) so a run's probe schedule is reproducible while distinct
// links still desynchronize. The backoff itself stays bounded by maxRTO —
// the jitter only ever shortens an interval, never extends it.
func jitterRTO(rto time.Duration, id, src int, probe uint64) time.Duration {
	h := uint64(id)<<40 ^ uint64(src)<<20 ^ probe
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	u := float64(h>>11) / float64(1<<53)
	return time.Duration(float64(rto) * (1 - probeJitter*u))
}

// ClusterOptions configures NewClusterWithOptions.
type ClusterOptions struct {
	// Compress enables the NIC engines on ToS 0x28 frames.
	Compress bool
	// Bound is the codec error bound.
	Bound fpcodec.Bound
	// Chaos, if non-nil, injects deterministic faults into the data
	// plane (drops, corruption, truncation, duplication, delay,
	// partitions, crashes).
	Chaos *fault.Injector
	// Retry tunes the recovery protocol; zero values take defaults.
	Retry RetryPolicy
	// Obs, if non-nil, records the transport's recovery counters
	// (tcp_retransmits, tcp_crc_failures, tcp_nacks, tcp_degraded_frames,
	// tcp_backoff_ns), wire-byte counters with the live compression_ratio
	// gauge, and codec phase spans.
	Obs *obs.Recorder
}

// clusterObs holds the cluster's recovery-counter handles, resolved once at
// construction so hot paths pay only nil checks and atomic adds. The
// wire-byte series are comm's (Cluster.wire).
type clusterObs struct {
	rec         *obs.Recorder
	retransmits *obs.Counter
	crcFailures *obs.Counter
	nacks       *obs.Counter
	degraded    *obs.Counter
	backoffNs   *obs.Counter
}

func newClusterObs(rec *obs.Recorder) *clusterObs {
	if rec == nil {
		return nil
	}
	return &clusterObs{
		rec:         rec,
		retransmits: rec.Counter("tcp_retransmits"),
		crcFailures: rec.Counter("tcp_crc_failures"),
		nacks:       rec.Counter("tcp_nacks"),
		degraded:    rec.Counter("tcp_degraded_frames"),
		backoffNs:   rec.Counter("tcp_backoff_ns"),
	}
}

// Cluster is a fully connected set of TCP nodes on the loopback interface.
type Cluster struct {
	n     int
	bound fpcodec.Bound
	useC  bool
	chaos *fault.Injector
	retry RetryPolicy
	cobs  *clusterObs
	wire  *comm.WireMeter // one Observe per data-frame transmission

	nodes []*Node
}

// Node is one TCP endpoint; it implements comm.CtxPeer.
type Node struct {
	cluster *Cluster
	id      int

	conns     []net.Conn // conns[peer], nil for self
	write     []*bufio.Writer
	wmu       []sync.Mutex
	inbox     []chan decodedFrame // inbox[peer]: verified in-order data
	out       []outLink           // out[peer]: retransmit state
	in        []inLink            // in[peer]: reorder/dedupe state
	stats     []*comm.LinkStats   // stats[peer]: this node's link counters
	closed    chan struct{}
	closeOnce sync.Once
	errs      chan error // torn frames, protocol violations, dead links

	// engines are per-node, as in the hardware (one NIC per host). They
	// keep no state between payloads but their cycle counters, so the
	// node's concurrent senders and readers share them.
	ce *nic.CompressionEngine
	de *nic.DecompressionEngine

	degraded      atomic.Int64
	sentBytes     int64
	receivedBytes int64
	statsMu       sync.Mutex
}

// outLink is the sender side of one directed link: the frames not yet
// cumulatively ACKed, kept for retransmission, and the storage their
// bodies and float copies are recycled through.
type outLink struct {
	mu     sync.Mutex
	next   uint32
	buf    map[uint32]*outFrame
	bodies freeList[byte]
	floats freeList[float32]
}

// outFrame is one retransmittable frame, encoded once: every attempt
// writes h and body as they are. A compressed frame also keeps its floats,
// so a want-raw NACK can resend the block uncompressed.
type outFrame struct {
	h        frameHeader
	body     []byte
	floats   []float32 // compressed frames only
	attempts int
	inFlight int  // attempts between their chaos verdict and their last write
	acked    bool // cumulatively ACKed: recycled once inFlight is zero
	intact   bool // the last attempt goes to the socket whole
}

// inLink is the receiver side: next expected sequence, how far the link
// has reached, the stash of frames that arrived ahead of a retransmitted
// gap, and the float buffers decoded payloads are lent from.
type inLink struct {
	mu       sync.Mutex
	expected uint32
	reach    uint32 // one past the highest sequence that has arrived
	pending  map[uint32]decodedFrame
	lent     weak.Pointer[[]float32] // the payload the last receive handed out
	free     freeList[float32]
}

// arrived records that frame seq reached the link undelivered, or is
// delivered in the same critical section, so a probe never mistakes a
// frame still being decoded for a lost one. The caller holds il.mu.
func (il *inLink) arrived(seq uint32) {
	if seq >= il.reach {
		il.reach = seq + 1
	}
}

type decodedFrame struct {
	seq     uint32
	tag     int
	payload []float32
}

// maxFree bounds each free list. A ring link has one or two frames in
// flight; the headroom covers a sender that runs a few frames ahead of
// the goroutine reading its ACKs, and a longer burst's surplus goes to the
// collector.
const maxFree = 8

// freeList is one link's store of spent buffers, drawn from before
// allocating; its owner's mutex guards it. It holds each buffer weakly: a
// buffer still idle when the collector runs is reclaimed, not kept live.
// A warm link allocates next to nothing, so the collector's heap goal is
// twice whatever is live at its last cycle, and a buffer held strongly
// counts twice in peak RSS: strong lists, and a sync.Pool per link, whose
// victim cache keeps a buffer through one cycle, measured 164–236 MB of
// peak RSS on hdc_ring_tcp (2 vCPUs) against 150–160 MB weak. Held
// weakly, a list saves the allocations between two cycles, which on a warm
// link are nearly all.
type freeList[T any] struct{ bufs []weak.Pointer[[]T] }

// weakly boxes b so a free list can take it back without keeping it alive.
func weakly[T any](b []T) weak.Pointer[[]T] { return weak.Make(&b) }

// get returns a buffer of length n: the newest kept one that is still
// alive and holds n, else a fresh one with 1/64 to spare, so that the
// blocks of one ring, which differ in length by a value, share their
// buffers. Buffers it passes over are dropped.
func (f *freeList[T]) get(n int) []T {
	for len(f.bufs) > 0 {
		last := len(f.bufs) - 1
		p := f.bufs[last].Value()
		f.bufs[last] = weak.Pointer[[]T]{}
		f.bufs = f.bufs[:last]
		if p != nil && cap(*p) >= n {
			return (*p)[:n]
		}
	}
	return make([]T, n, n+n/64+1)
}

// put keeps b for a later get.
func (f *freeList[T]) put(b []T) {
	if cap(b) > 0 {
		f.keep(weakly(b))
	}
}

// keep adds a weakly held buffer, unless the list is full.
func (f *freeList[T]) keep(w weak.Pointer[[]T]) {
	if w != (weak.Pointer[[]T]{}) && len(f.bufs) < maxFree {
		f.bufs = append(f.bufs, w)
	}
}

// maxPending bounds the out-of-order stash per link.
const maxPending = 4096

// NewCluster starts n nodes on loopback and fully connects them. If
// compress is true, frames sent with ToS 0x28 are codec-compressed on the
// wire using the given error bound.
func NewCluster(n int, compress bool, bound fpcodec.Bound) (*Cluster, error) {
	return NewClusterWithOptions(n, ClusterOptions{Compress: compress, Bound: bound})
}

// NewClusterWithOptions starts n nodes with explicit fault-tolerance and
// chaos configuration.
func NewClusterWithOptions(n int, opts ClusterOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcpfabric: %d nodes", n)
	}
	c := &Cluster{
		n:     n,
		bound: opts.Bound,
		useC:  opts.Compress,
		chaos: opts.Chaos,
		retry: opts.Retry.withDefaults(),
		cobs:  newClusterObs(opts.Obs),
		wire:  comm.NewWireMeter(opts.Obs),
	}

	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tcpfabric: listen: %w", err)
		}
		listeners[i] = l
	}

	c.nodes = make([]*Node, n)
	for i := range c.nodes {
		node := &Node{
			cluster: c,
			id:      i,
			conns:   make([]net.Conn, n),
			write:   make([]*bufio.Writer, n),
			wmu:     make([]sync.Mutex, n),
			inbox:   make([]chan decodedFrame, n),
			out:     make([]outLink, n),
			in:      make([]inLink, n),
			stats:   make([]*comm.LinkStats, n),
			closed:  make(chan struct{}),
			errs:    make(chan error, 16),
			ce:      nic.NewCompressionEngine(opts.Bound),
			de:      nic.NewDecompressionEngine(opts.Bound),
		}
		for p := range node.inbox {
			node.inbox[p] = make(chan decodedFrame, 256)
			node.out[p].buf = make(map[uint32]*outFrame)
			node.in[p].pending = make(map[uint32]decodedFrame)
			node.stats[p] = &comm.LinkStats{}
		}
		c.nodes[i] = node
	}

	// Connect each ordered pair (i < j): i dials j and announces itself.
	// The accept goroutines record only the first error, under a mutex —
	// several of them may fail concurrently when a listener dies.
	var (
		acceptMu  sync.Mutex
		acceptErr error
	)
	setAcceptErr := func(err error) {
		acceptMu.Lock()
		if acceptErr == nil {
			acceptErr = err
		}
		acceptMu.Unlock()
	}
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < j; k++ { // j accepts one conn from every i < j
				conn, err := listeners[j].Accept()
				if err != nil {
					setAcceptErr(err)
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					setAcceptErr(err)
					return
				}
				i := int(binary.LittleEndian.Uint32(hello[:]))
				c.nodes[j].attach(i, conn)
			}
		}(j)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				return nil, fmt.Errorf("tcpfabric: dial %d->%d: %w", i, j, err)
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(i))
			if _, err := conn.Write(hello[:]); err != nil {
				return nil, fmt.Errorf("tcpfabric: hello %d->%d: %w", i, j, err)
			}
			c.nodes[i].attach(j, conn)
		}
	}
	wg.Wait()
	for _, l := range listeners {
		l.Close()
	}
	acceptMu.Lock()
	defer acceptMu.Unlock()
	if acceptErr != nil {
		return nil, fmt.Errorf("tcpfabric: accept: %w", acceptErr)
	}
	return c, nil
}

// attach wires a connection to a peer and starts its reader.
func (nd *Node) attach(peer int, conn net.Conn) {
	nd.conns[peer] = conn
	nd.write[peer] = bufio.NewWriterSize(conn, 64<<10)
	go nd.readLoop(peer, conn)
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.n }

// Node returns endpoint id.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Close shuts down every connection. It is idempotent and safe to call
// concurrently.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		nd.close()
	}
}

func (nd *Node) close() {
	nd.closeOnce.Do(func() {
		close(nd.closed)
		for _, conn := range nd.conns {
			if conn != nil {
				conn.Close()
			}
		}
	})
}

func (nd *Node) isClosed() bool {
	select {
	case <-nd.closed:
		return true
	default:
		return false
	}
}

// pushErr surfaces a link anomaly on the node's error channel without
// ever blocking the reader.
func (nd *Node) pushErr(err error) {
	select {
	case nd.errs <- err:
	default:
	}
}

// Errors is the node's anomaly channel: torn frames, protocol violations,
// and links whose retransmission budget ran out are reported here,
// distinguishing them from a clean connection close.
func (nd *Node) Errors() <-chan error { return nd.errs }

// LinkStats returns this node's recovery counters for traffic exchanged
// with peer: NACKs issued, retransmissions performed, degraded frames
// accepted, and receive-wait time (straggler detection).
func (nd *Node) LinkStats(peer int) *comm.LinkStats { return nd.stats[peer] }

// DegradedFrames counts compressed frames this node had to re-request and
// accept as raw after a codec decode failure.
func (nd *Node) DegradedFrames() int64 { return nd.degraded.Load() }

// ID implements comm.CtxPeer.
func (nd *Node) ID() int { return nd.id }

// N implements comm.CtxPeer.
func (nd *Node) N() int { return nd.cluster.n }

var _ comm.CtxPeer = (*Node)(nil)

// SendCtx encodes the payload once, registers the frame in the per-link
// retransmit buffer, and transmits it. The frame stays buffered until the
// receiver's cumulative ACK covers it, so NACKs (corruption, gaps, stalls,
// want-raw degradation) are served from the same bytes. The caller may
// reuse payload once SendCtx returns. The link's RawBytes counts the
// payload once per send, whatever its retransmissions add to the wire.
func (nd *Node) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	if dst == nd.id {
		return fmt.Errorf("tcpfabric: node %d send to self", nd.id)
	}
	if nd.isClosed() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if ch := nd.cluster.chaos; ch != nil && ch.RecordSend(nd.id) {
		return fmt.Errorf("tcpfabric: node %d: %w", nd.id, fault.ErrCrashed)
	}
	ol := &nd.out[dst]
	of := nd.encode(ol, payload, tos, tag)
	ol.mu.Lock()
	if len(ol.buf) >= sendWindow {
		ol.recycle(of)
		ol.mu.Unlock()
		return fmt.Errorf("tcpfabric: %d->%d: %w", nd.id, dst, ErrSendWindow)
	}
	seq := ol.next
	ol.next++
	of.h.seq = seq
	ol.buf[seq] = of
	ol.mu.Unlock()
	if err := nd.transmit(dst, seq, of, false); err != nil {
		return err
	}
	nd.stats[dst].RawBytes.Add(4 * int64(len(payload)))
	return nil
}

// encode builds a data frame's header and body, into storage from the
// link's free lists, and checksums the body: the one conversion of the
// payload's floats to bytes.
func (nd *Node) encode(ol *outLink, payload []float32, tos uint8, tag int) *outFrame {
	of := &outFrame{
		h:      frameHeader{kind: kindData, tos: tos, tag: uint32(tag), count: uint32(len(payload))},
		intact: true, // no attempt has gone bad
	}
	compress := nd.cluster.useC && tos == comm.ToSCompress
	ol.mu.Lock()
	if compress {
		// About one byte per float holds a typical gradient stream; a
		// larger one grows the body, which returns to the list grown.
		of.body = ol.bodies.get(len(payload))
		of.floats = ol.floats.get(len(payload))
	} else {
		of.body = ol.bodies.get(4 * len(payload))
	}
	ol.mu.Unlock()
	if compress {
		copy(of.floats, payload)
		var sp obs.ActiveSpan
		if cobs := nd.cluster.cobs; cobs != nil {
			sp = cobs.rec.Span(nd.id, -1, obs.PhaseCompress)
		}
		var bits int
		of.body, bits = nd.ce.CompressInto(of.body, payload)
		sp.End()
		of.h.flags = flagCompressed
		of.h.bitLen = uint32(bits)
	} else {
		frame.PutF32s(of.body, payload)
	}
	of.h.payloadLen = uint32(len(of.body))
	of.h.crc = bodyCRC(of.body)
	return of
}

// recycle returns a delivered frame's storage to the link's free lists.
// The caller holds ol.mu.
func (ol *outLink) recycle(of *outFrame) {
	ol.bodies.put(of.body)
	ol.floats.put(of.floats)
	of.body, of.floats = nil, nil
}

// transmit writes one attempt of a frame (fresh send or retransmission),
// applying the chaos verdict for this attempt. raw asks for an
// uncompressed body (the degraded fallback), encoded from the frame's
// floats for this attempt only.
func (nd *Node) transmit(dst int, seq uint32, of *outFrame, raw bool) error {
	ol := &nd.out[dst]
	ol.mu.Lock()
	if of.acked {
		// Delivered since the NACK named it; its body may be reused already.
		ol.mu.Unlock()
		return nil
	}
	attempt := of.attempts
	of.attempts++
	of.inFlight++
	h, body, floats := of.h, of.body, of.floats
	var v fault.Verdict
	v.CorruptBit = -1
	if ch := nd.cluster.chaos; ch != nil {
		v = ch.Decide(nd.id, dst, uint64(seq), attempt)
	}
	// A glitching engine emits a short bitstream: the frame stays
	// well-formed (bitLen clamped to the body it actually carries, and
	// still a tag vector per group, which decodeHeader insists on) and
	// CRC-valid, but the codec runs out of bits mid-group and fails,
	// driving the receiver's raw-fallback path.
	truncate := v.TruncateBytes > 0 && !raw && h.flags&flagCompressed != 0 && len(body) > v.TruncateBytes &&
		fpcodec.CheckStreamBits(int(h.count), 8*(len(body)-v.TruncateBytes)) == nil
	var rawBody []byte
	wlen := len(body) // the bytes this attempt writes
	if raw && floats != nil {
		rawBody = ol.bodies.get(4 * len(floats))
		wlen = len(rawBody)
	}
	corrupt := v.CorruptBit >= 0 && wlen > 0
	of.intact = !v.Drop && !truncate && !corrupt
	ol.mu.Unlock()
	defer func() {
		ol.mu.Lock()
		if of.inFlight--; of.acked && of.inFlight == 0 {
			ol.recycle(of)
		}
		ol.bodies.put(rawBody)
		ol.mu.Unlock()
	}()

	cobs := nd.cluster.cobs
	if attempt > 0 {
		nd.stats[dst].Retransmits.Add(1)
		if cobs != nil {
			cobs.retransmits.Add(1)
		}
	}
	if raw {
		if rawBody != nil {
			frame.PutF32s(rawBody, floats)
			body = rawBody
			h.flags, h.bitLen = 0, 0
			h.payloadLen = uint32(len(body))
			h.crc = bodyCRC(body)
		}
		h.flags |= flagRawFallback
	}

	// Chaos injection, data plane only. Truncation happens before the CRC
	// is computed (a glitching engine), corruption after (on-wire damage),
	// on a private copy: the kept body stays intact for the next attempt.
	if v.Delay > 0 {
		select {
		case <-time.After(v.Delay):
		case <-nd.closed:
			return ErrClosed
		}
	}
	if truncate {
		body = body[:len(body)-v.TruncateBytes]
		if h.bitLen > 8*uint32(len(body)) {
			h.bitLen = 8 * uint32(len(body))
		}
		h.payloadLen = uint32(len(body))
		h.crc = bodyCRC(body)
	}
	if corrupt {
		body = append([]byte(nil), body...)
		bit := v.CorruptBit % (8 * len(body))
		body[bit/8] ^= 1 << (bit % 8)
	}
	nd.cluster.wire.Observe(4*int64(h.count), int64(len(body)), h.flags&flagCompressed != 0)
	if v.Drop {
		return nil // the frame "left" but never hits the wire
	}
	writes := 1
	if v.Duplicate {
		writes = 2
	}
	for w := 0; w < writes; w++ {
		if err := nd.writeFrame(dst, h, body); err != nil {
			return err
		}
	}
	return nil
}

// writeFrame serializes one frame onto the peer's socket.
func (nd *Node) writeFrame(dst int, h frameHeader, body []byte) error {
	header := encodeHeader(h)
	nd.wmu[dst].Lock()
	defer nd.wmu[dst].Unlock()
	if nd.isClosed() {
		return ErrClosed
	}
	w := nd.write[dst]
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("tcpfabric: write header %d->%d: %w", nd.id, dst, err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("tcpfabric: write body %d->%d: %w", nd.id, dst, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("tcpfabric: flush %d->%d: %w", nd.id, dst, err)
	}
	nd.statsMu.Lock()
	nd.sentBytes += int64(len(header) + len(body))
	nd.statsMu.Unlock()
	return nil
}

// sendCtl emits an ACK or NACK. Control frames bypass chaos injection:
// the fault model is a lossy data plane under a reliable control plane.
func (nd *Node) sendCtl(dst int, kind uint8, seq uint32, flags uint8) {
	h := frameHeader{kind: kind, seq: seq, flags: flags}
	if err := nd.writeFrame(dst, h, nil); err != nil && !nd.isClosed() {
		nd.pushErr(err)
	}
}

// RecvCtx returns the next in-order verified payload from src, whose tag
// must equal tag, lent until the next receive from src (comm.CtxPeer): the
// payload the previous receive from src returned goes back to the link's
// free list. While stalled it NACKs the sender for the expected frame
// (with bounded, jittered exponential backoff) so a dropped frame is
// recovered; the context deadline bounds the total wait, turning a
// permanent partition into an error instead of a hang.
func (nd *Node) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	il := &nd.in[src]
	il.mu.Lock()
	il.free.keep(il.lent)
	il.lent = weak.Pointer[[]float32]{}
	il.mu.Unlock()
	start := time.Now()
	rto := nd.cluster.retry.ProbeRTO
	var probes uint64
	for {
		timer := time.NewTimer(jitterRTO(rto, nd.id, src, probes))
		select {
		case f := <-nd.inbox[src]:
			timer.Stop()
			il.mu.Lock()
			il.lent = weakly(f.payload)
			il.mu.Unlock()
			nd.stats[src].ObserveRecvWait(time.Since(start).Nanoseconds())
			if f.tag != tag {
				return nil, fmt.Errorf("tcpfabric: node %d expected tag %d from %d, got %d",
					nd.id, tag, src, f.tag)
			}
			return f.payload, nil
		case <-timer.C:
			// Stall: re-request the next expected frame in case it was
			// dropped. Until something at or past it has arrived there is
			// no evidence of loss, so the NACK is only a probe: the sender
			// answers it only if its last attempt did not reach the socket
			// whole. A probe for a frame not produced yet is ignored too.
			il.mu.Lock()
			exp := il.expected
			var flags uint8
			if il.reach <= exp {
				flags = flagProbe
			}
			il.mu.Unlock()
			if cobs := nd.cluster.cobs; cobs != nil {
				// The expired probe interval is time spent backing off.
				cobs.backoffNs.Add(rto.Nanoseconds())
				cobs.nacks.Add(1)
			}
			nd.sendCtl(src, kindNack, exp, flags)
			probes++
			if rto *= 2; rto > maxRTO {
				rto = maxRTO
			}
		case <-ctx.Done():
			timer.Stop()
			nd.stats[src].Timeouts.Add(1)
			return nil, fmt.Errorf("tcpfabric: recv %d<-%d after %v: %w",
				nd.id, src, time.Since(start).Round(time.Millisecond), ctx.Err())
		case <-nd.closed:
			timer.Stop()
			return nil, fmt.Errorf("tcpfabric: node %d recv from %d: %w", nd.id, src, ErrClosed)
		}
	}
}

// SentBytes returns the total bytes this node wrote to its sockets
// (headers + payloads, post-compression, control frames included).
func (nd *Node) SentBytes() int64 {
	nd.statsMu.Lock()
	defer nd.statsMu.Unlock()
	return nd.sentBytes
}

// ReceivedBytes returns the total frame bytes read.
func (nd *Node) ReceivedBytes() int64 {
	nd.statsMu.Lock()
	defer nd.statsMu.Unlock()
	return nd.receivedBytes
}

// EngineCycles returns the node's NIC engine cycle counters.
func (nd *Node) EngineCycles() (compress, decompress int64) {
	return nd.ce.Cycles(), nd.de.Cycles()
}

// readLoop parses frames from one peer connection, dispatching data
// frames through the verify/dedupe/reorder machinery and control frames
// to the retransmit state. It is the connection's only reader, so every
// body lands in one read buffer, grown to the link's largest frame. A
// clean close (EOF at a frame boundary, or a local Close) ends the loop
// silently; a torn frame or protocol violation is surfaced on the node's
// error channel first.
func (nd *Node) readLoop(peer int, conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	var header [frameHeaderLen]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err != io.EOF && !nd.isClosed() {
				nd.pushErr(fmt.Errorf("tcpfabric: node %d torn header from %d: %w", nd.id, peer, err))
			}
			return
		}
		h, err := decodeHeader(header[:])
		if err != nil {
			// The stream is desynchronized beyond recovery.
			nd.pushErr(fmt.Errorf("tcpfabric: node %d from %d: %w", nd.id, peer, err))
			return
		}
		if cap(body) < int(h.payloadLen) {
			body = make([]byte, h.payloadLen)
		}
		body = body[:h.payloadLen]
		if n, err := io.ReadFull(r, body); err != nil {
			if !nd.isClosed() {
				nd.pushErr(fmt.Errorf("tcpfabric: node %d torn frame body from %d (%d/%dB): %w",
					nd.id, peer, n, h.payloadLen, err))
			}
			return
		}
		nd.statsMu.Lock()
		nd.receivedBytes += int64(len(header) + len(body))
		nd.statsMu.Unlock()

		switch h.kind {
		case kindAck:
			nd.handleAck(peer, h.seq)
		case kindNack:
			nd.handleNack(peer, h.seq, h.flags)
		case kindData:
			if !nd.handleData(peer, h, body) {
				return
			}
		}
	}
}

// handleAck prunes the retransmit buffer up to the cumulative ack. A
// pruned frame's storage is recycled now, or by the last attempt still
// writing it.
func (nd *Node) handleAck(peer int, seq uint32) {
	ol := &nd.out[peer]
	ol.mu.Lock()
	for k, of := range ol.buf {
		if k <= seq {
			delete(ol.buf, k)
			if of.acked = true; of.inFlight == 0 {
				ol.recycle(of)
			}
		}
	}
	ol.mu.Unlock()
}

// handleNack retransmits the requested frame from the buffer — raw if the
// receiver's codec failed on it — respecting the attempt cap. A probe for
// a frame whose last attempt went out whole is answered by TCP, not here.
func (nd *Node) handleNack(peer int, seq uint32, flags uint8) {
	ol := &nd.out[peer]
	ol.mu.Lock()
	of, ok := ol.buf[seq]
	quiet := ok && flags&flagProbe != 0 && of.intact
	exhausted := ok && of.attempts >= nd.cluster.retry.MaxAttempts
	ol.mu.Unlock()
	if !ok || quiet {
		// Already delivered+acked, a stall probe for a frame this node has
		// not sent yet, or one for a frame still on its way: all safely
		// ignored.
		return
	}
	if exhausted {
		nd.pushErr(fmt.Errorf("tcpfabric: frame %d->%d seq %d: %w",
			nd.id, peer, seq, ErrRetriesExhausted))
		return
	}
	if err := nd.transmit(peer, seq, of, flags&flagWantRaw != 0); err != nil && !nd.isClosed() {
		nd.pushErr(err)
	}
}

// nack answers a data frame the receiver cannot deliver with a NACK that
// demands its retransmission.
func (nd *Node) nack(peer int, seq uint32, flags uint8) {
	nd.stats[peer].Nacks.Add(1)
	if cobs := nd.cluster.cobs; cobs != nil {
		cobs.nacks.Add(1)
	}
	nd.sendCtl(peer, kindNack, seq, flags)
}

// handleData verifies, dedupes, decodes, and delivers one data frame,
// ACKing progress and NACKing anomalies. body is the link's read buffer:
// the payload is decoded out of it, into a buffer from the link's free
// list, before the next frame is read. Duplicates and frames the stash
// cannot take are dropped before any decoding. It returns false only when
// the node is shutting down.
func (nd *Node) handleData(peer int, h frameHeader, body []byte) bool {
	cobs := nd.cluster.cobs
	il := &nd.in[peer]
	if bodyCRC(body) != h.crc {
		il.mu.Lock()
		il.arrived(h.seq)
		il.mu.Unlock()
		if cobs != nil {
			cobs.crcFailures.Add(1)
		}
		nd.nack(peer, h.seq, 0)
		return true
	}
	if h.flags&flagCompressed != 0 && h.tos != comm.ToSCompress {
		nd.pushErr(fmt.Errorf("tcpfabric: node %d compressed frame without ToS from %d", nd.id, peer))
		return false
	}

	// Only this goroutine moves expected and the stash, so what is decided
	// here still holds once the payload is decoded.
	il.mu.Lock()
	_, stashed := il.pending[h.seq]
	switch {
	case h.seq < il.expected:
		// Duplicate of an already-delivered frame: refresh the ACK so a
		// sender stuck on a lost ACK converges, but never deliver twice.
		acked := il.expected - 1
		il.mu.Unlock()
		nd.sendCtl(peer, kindAck, acked, 0)
		return true
	case h.seq > il.expected && (stashed || len(il.pending) >= maxPending):
		// A gap, and this frame is already stashed or there is no room
		// for it: re-request the missing frame without decoding this one.
		il.arrived(h.seq)
		gap := il.expected
		il.mu.Unlock()
		nd.nack(peer, gap, 0)
		return true
	}
	dst := il.free.get(int(h.count))
	il.mu.Unlock()

	var payload []float32
	if h.flags&flagCompressed != 0 {
		var sp obs.ActiveSpan
		if cobs != nil {
			sp = cobs.rec.Span(nd.id, -1, obs.PhaseDecompress)
		}
		out, err := nd.de.DecompressInto(dst, body, int(h.bitLen), int(h.count))
		sp.End()
		if err != nil {
			// The bits survived the wire (CRC ok) but the codec cannot
			// decode them — a glitching engine. Degrade: re-request the
			// block raw so training continues uncompressed for this hop.
			il.mu.Lock()
			il.free.put(dst)
			il.arrived(h.seq)
			il.mu.Unlock()
			nd.nack(peer, h.seq, flagWantRaw)
			return true
		}
		payload = out
	} else {
		if err := decodeRawPayload(dst, h, body); err != nil {
			il.mu.Lock()
			il.free.put(dst)
			il.arrived(h.seq)
			il.mu.Unlock()
			nd.nack(peer, h.seq, 0)
			return true
		}
		payload = dst
		if h.flags&flagRawFallback != 0 {
			nd.degraded.Add(1)
			nd.stats[peer].Degraded.Add(1)
			if cobs != nil {
				cobs.degraded.Add(1)
			}
		}
	}

	il.mu.Lock()
	il.arrived(h.seq)
	if h.seq > il.expected {
		// A gap: an earlier frame was dropped. Stash this one and
		// re-request the missing frame.
		il.pending[h.seq] = decodedFrame{seq: h.seq, tag: int(h.tag), payload: payload}
		gap := il.expected
		il.mu.Unlock()
		nd.nack(peer, gap, 0)
		return true
	}
	deliver := []decodedFrame{{seq: h.seq, tag: int(h.tag), payload: payload}}
	il.expected++
	for {
		next, ok := il.pending[il.expected]
		if !ok {
			break
		}
		delete(il.pending, il.expected)
		deliver = append(deliver, next)
		il.expected++
	}
	acked := il.expected - 1
	il.mu.Unlock()

	nd.sendCtl(peer, kindAck, acked, 0)
	for _, d := range deliver {
		select {
		case nd.inbox[peer] <- d:
		case <-nd.closed:
			return false
		}
	}
	return true
}
