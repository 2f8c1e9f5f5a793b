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
// A plain frame is its floats' bytes. INCP's plain body is little-endian
// IEEE-754 float32, which on a little-endian host is the payload's own
// memory: a send writes the header and a byte view of the caller's payload
// in one writev, and the reader reads the body straight into a float buffer
// from the link's free list, which it lends to the caller once the frame
// checks out (comm.CtxPeer states the ownership rule). A compressed frame
// (and, on a big-endian host, a plain one) is encoded into a body drawn
// from the link's free list and decoded out of the link's one read buffer.
//
// TCP is the one reliability protocol: it delivers the bytes it accepted,
// in order, as the paper's NIC assumes of the stack above it. Every data
// frame still carries a per-link sequence number and a CRC32-C of its body
// (see frame.go for the wire layout), and the receiver checks both. A CRC
// mismatch, a body the codec cannot decode, or a sequence gap or repeat is
// a broken engine or a bug, and fails closed: an error naming the hop and
// wrapping fault.ErrBadFrame goes to the node's Errors channel, and the
// link delivers nothing more. Fault injection for chaos testing plugs in
// through ClusterOptions.Chaos (internal/fault).
package tcpfabric

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
	"inceptionn/internal/nic"
	"inceptionn/internal/obs"
	"inceptionn/internal/tensor"
)

// ErrClosed marks an operation on a closed cluster. It wraps
// fault.ErrClosed, so a grader matches it with errors.Is(err,
// fault.ErrClosed).
var ErrClosed = fmt.Errorf("tcpfabric: closed: %w", fault.ErrClosed)

// ClusterOptions configures NewClusterWithOptions.
type ClusterOptions struct {
	// Compress enables the NIC engines on ToS 0x28 frames.
	Compress bool
	// Bound is the codec error bound.
	Bound fpcodec.Bound
	// Chaos, if non-nil, injects deterministic faults into the data
	// plane (drops, corruption, truncation, partitions, crashes).
	Chaos *fault.Injector
	// Obs, if non-nil, records wire-byte counters with the live
	// compression_ratio gauge, and codec phase spans.
	Obs *obs.Recorder
}

// Cluster is a fully connected set of TCP nodes on the loopback interface.
type Cluster struct {
	n     int
	useC  bool
	chaos *fault.Injector
	rec   *obs.Recorder   // codec spans
	wire  *comm.WireMeter // one Observe per data frame

	nodes []*Node
}

// Node is one TCP endpoint; it implements comm.CtxPeer.
type Node struct {
	cluster *Cluster
	id      int

	conns     []net.Conn          // conns[peer], nil for self
	out       []outLink           // out[peer]: the write side
	in        []comm.Lender       // in[peer]: the payloads lent from the link
	inbox     []chan decodedFrame // inbox[peer]: verified in-order data
	stats     []*comm.LinkStats   // stats[peer]: this node's link counters
	closed    chan struct{}
	closeOnce sync.Once
	errs      chan error // bad frames, torn frames, stream desync

	// engines are per-node, as in the hardware (one NIC per host). They
	// keep no state between payloads but their cycle counters, so the
	// node's concurrent senders and readers share them.
	ce *nic.CompressionEngine
	de *nic.DecompressionEngine

	sentBytes atomic.Int64
}

// outLink is the sender side of one directed link. A send holds mu from
// its encode to the end of its write, so frames take their sequence
// numbers in the order they reach the socket, and a body drawn from the
// free list is back on it before the next send draws one. header, vec and
// bufs are the write's storage, kept here so a write allocates none.
type outLink struct {
	mu     sync.Mutex
	conn   net.Conn
	next   uint32
	bodies comm.FreeList[byte]
	header [frameHeaderLen]byte
	vec    [2][]byte
	bufs   net.Buffers
}

// decodedFrame is one verified payload on its way to RecvCtx, in the box
// it was drawn from the in-link's free list with.
type decodedFrame struct {
	tag int
	buf *comm.Box[float32]
}

// NewCluster starts n nodes on loopback and fully connects them. If
// compress is true, frames sent with ToS 0x28 are codec-compressed on the
// wire using the given error bound.
func NewCluster(n int, compress bool, bound fpcodec.Bound) (*Cluster, error) {
	return NewClusterWithOptions(n, ClusterOptions{Compress: compress, Bound: bound})
}

// NewClusterWithOptions starts n nodes with explicit codec, chaos and
// observability configuration.
func NewClusterWithOptions(n int, opts ClusterOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcpfabric: %d nodes", n)
	}
	c := &Cluster{
		n:     n,
		useC:  opts.Compress,
		chaos: opts.Chaos,
		rec:   opts.Obs,
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
			out:     make([]outLink, n),
			in:      make([]comm.Lender, n),
			inbox:   make([]chan decodedFrame, n),
			stats:   make([]*comm.LinkStats, n),
			closed:  make(chan struct{}),
			errs:    make(chan error, 16),
			ce:      nic.NewCompressionEngine(opts.Bound),
			de:      nic.NewDecompressionEngine(opts.Bound),
		}
		for p := range node.inbox {
			node.inbox[p] = make(chan decodedFrame, 256)
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
	nd.out[peer].conn = conn
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

// Errors is the node's anomaly channel: frames it cannot deliver (each
// wrapping fault.ErrBadFrame), torn frames and stream desync are reported
// here, distinguishing them from a clean connection close.
func (nd *Node) Errors() <-chan error { return nd.errs }

// LinkStats returns this node's counters for traffic exchanged with peer:
// raw bytes sent, receive timeouts, and receive-wait time (straggler
// detection).
func (nd *Node) LinkStats(peer int) *comm.LinkStats { return nd.stats[peer] }

// ID implements comm.CtxPeer.
func (nd *Node) ID() int { return nd.id }

// N implements comm.CtxPeer.
func (nd *Node) N() int { return nd.cluster.n }

var _ comm.CtxPeer = (*Node)(nil)

// SendCtx writes the payload as the link's next frame: a plain frame's body
// is the payload's bytes on a little-endian host; any other body is
// encoded into storage from the link's free list, which goes back to the
// list once written. The caller may reuse payload once SendCtx returns.
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
	ol.mu.Lock()
	defer ol.mu.Unlock()
	h, body, box := nd.encode(ol, payload, tos, tag)
	h.seq = ol.next
	ol.next++
	err := nd.write(ol, dst, h, body)
	if box != nil {
		ol.bodies.Put(box)
	}
	if err != nil {
		return err
	}
	nd.stats[dst].RawBytes.Add(4 * int64(len(payload)))
	return nil
}

// encode builds a data frame's header and body and checksums the body. A
// viewed frame's body is floatBytes(payload), and box is nil; any other is
// built in box, drawn from the link's free list. The caller holds ol.mu.
func (nd *Node) encode(ol *outLink, payload []float32, tos uint8, tag int) (h frameHeader, body []byte, box *comm.Box[byte]) {
	h = frameHeader{kind: kindData, tos: tos, tag: uint32(tag), count: uint32(len(payload))}
	if nd.cluster.useC && tos == comm.ToSCompress {
		// About one byte per float holds a typical gradient stream; a
		// larger one grows the body, which returns to the list grown.
		box = ol.bodies.Get(len(payload))
		sp := nd.cluster.rec.Span(nd.id, -1, obs.PhaseCompress)
		var bits int
		box.Buf, bits = nd.ce.CompressInto(box.Buf, payload)
		sp.End()
		h.flags, h.bitLen = flagCompressed, uint32(bits)
		body = box.Buf
	} else if wireIsMemory {
		body = floatBytes(payload)
	} else {
		box = ol.bodies.Get(4 * len(payload))
		body = box.Buf
		frame.PutF32s(body, payload)
	}
	h.payloadLen = uint32(len(body))
	h.crc = bodyCRC(body)
	return h, body, box
}

// write puts one frame on dst's socket, header and body in one writev,
// under the chaos verdict for it. Truncation happens before the CRC is
// recomputed (a glitching engine), corruption after (on-wire damage). Both
// edit the body in place, which is spent once written, except a viewed
// body: that is the caller's payload, so corruption edits a copy from the
// link's free list. The caller holds ol.mu.
func (nd *Node) write(ol *outLink, dst int, h frameHeader, body []byte) error {
	drop := false
	if ch := nd.cluster.chaos; ch != nil {
		v := ch.Decide(nd.id, dst, uint64(h.seq))
		drop = v.Drop
		// A glitching engine emits a short bitstream. The frame stays
		// well-formed (bitLen clamped to the body it carries, and still a
		// tag vector per group, which decodeHeader insists on) and
		// CRC-valid, but the codec runs out of bits mid-group.
		if v.TruncateBytes > 0 && h.flags&flagCompressed != 0 && len(body) > v.TruncateBytes &&
			fpcodec.CheckStreamBits(int(h.count), 8*(len(body)-v.TruncateBytes)) == nil {
			body = body[:len(body)-v.TruncateBytes]
			h.bitLen = min(h.bitLen, 8*uint32(len(body)))
			h.payloadLen = uint32(len(body))
			h.crc = bodyCRC(body)
		}
		if v.CorruptBit >= 0 && len(body) > 0 {
			if viewed(h) {
				spoilt := ol.bodies.Get(len(body))
				copy(spoilt.Buf, body)
				defer ol.bodies.Put(spoilt)
				body = spoilt.Buf
			}
			bit := v.CorruptBit % (8 * len(body))
			body[bit/8] ^= 1 << (bit % 8)
		}
	}
	nd.cluster.wire.Observe(4*int64(h.count), int64(len(body)), h.flags&flagCompressed != 0)
	if drop {
		return nil // the frame "left" but never hits the wire
	}
	if nd.isClosed() {
		return ErrClosed
	}
	ol.header = encodeHeader(h)
	ol.bufs = append(ol.vec[:0], ol.header[:], body)
	_, err := ol.bufs.WriteTo(ol.conn)
	clear(ol.vec[:]) // keep no hold on the caller's payload
	if err != nil {
		return nd.writeErr("frame", dst, err)
	}
	nd.sentBytes.Add(int64(frameHeaderLen + len(body)))
	return nil
}

// writeErr names a failed write's hop; a write the node's Close cut short
// is graded as a closed transport.
func (nd *Node) writeErr(what string, dst int, err error) error {
	if nd.isClosed() {
		err = ErrClosed
	}
	return fmt.Errorf("tcpfabric: write %s %d->%d: %w", what, nd.id, dst, err)
}

// RecvCtx returns the next in-order verified payload from src, whose tag
// must equal tag, lent until the next receive from src (comm.CtxPeer): the
// payload the previous receive from src returned goes back to the link's
// free list. The context deadline bounds the wait, turning a dead link
// into an error instead of a hang.
func (nd *Node) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	il := &nd.in[src]
	il.Reclaim()
	start := time.Now()
	select {
	case f := <-nd.inbox[src]:
		il.Lend(f.buf)
		nd.stats[src].ObserveRecvWait(time.Since(start).Nanoseconds())
		if f.tag != tag {
			return nil, fmt.Errorf("tcpfabric: node %d expected tag %d from %d, got %d",
				nd.id, tag, src, f.tag)
		}
		return f.buf.Buf, nil
	case <-ctx.Done():
		nd.stats[src].Timeouts.Add(1)
		return nil, fmt.Errorf("tcpfabric: recv %d<-%d after %v: %w",
			nd.id, src, time.Since(start).Round(time.Millisecond), ctx.Err())
	case <-nd.closed:
		return nil, fmt.Errorf("tcpfabric: node %d recv from %d: %w", nd.id, src, ErrClosed)
	}
}

// RecvIntoCtx receives the next payload from src as RecvCtx does, writes it
// into dst or adds it there, and takes it back to the link's free list at
// once, so nothing stays lent (comm.CtxPeer). The payload must carry
// len(dst) values.
func (nd *Node) RecvIntoCtx(ctx context.Context, src int, tag int, dst []float32, add bool) error {
	rb, err := nd.RecvCtx(ctx, src, tag)
	switch {
	case err != nil:
	case len(rb) != len(dst):
		err = fmt.Errorf("tcpfabric: node %d tag %d: %d floats from %d, want %d", nd.id, tag, len(rb), src, len(dst))
	case add:
		tensor.Add(dst, rb)
	default:
		copy(dst, rb)
	}
	nd.in[src].Reclaim()
	return err
}

// SentBytes returns the total bytes this node wrote to its sockets
// (headers + payloads, post-compression).
func (nd *Node) SentBytes() int64 { return nd.sentBytes.Load() }

// readLoop parses frames from one peer connection and hands each to
// handleData. It is the connection's only reader. A viewed frame's body is
// read straight into a float buffer drawn from the link's free list, which
// handleData delivers if the frame checks out; every other body lands in
// one read buffer, grown to the link's largest such frame. A clean close
// (EOF at a frame boundary, or a local Close) ends the loop silently; a
// torn frame or stream desync is surfaced on the node's error channel
// first. Once a frame fails, the link delivers nothing more, but its later
// frames are still read, so no sender blocks on a reader that stopped.
func (nd *Node) readLoop(peer int, conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	il := &nd.in[peer]
	var header [frameHeaderLen]byte
	var buf []byte  // the read buffer
	var want uint32 // the next frame's sequence number
	failed := false
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
		var payload *comm.Box[float32]
		var body []byte
		if viewed(h) && !failed {
			payload = il.Draw(int(h.count))
			body = floatBytes(payload.Buf)
		} else {
			if cap(buf) < int(h.payloadLen) {
				buf = make([]byte, h.payloadLen)
			}
			body = buf[:h.payloadLen]
		}
		if n, err := io.ReadFull(r, body); err != nil {
			if !nd.isClosed() {
				nd.pushErr(fmt.Errorf("tcpfabric: node %d torn frame body from %d (%d/%dB): %w",
					nd.id, peer, n, h.payloadLen, err))
			}
			return
		}
		if failed {
			continue
		}
		switch err := nd.handleData(peer, want, h, body, payload); {
		case err == ErrClosed:
			return
		case err != nil:
			nd.pushErr(err)
			failed = true
		}
		want++
	}
}

// handleData checks one data frame's sequence number and CRC and delivers
// its payload. A viewed frame's body is the byte view of payload, which
// readLoop drew from the link's free list; any other body is the link's
// read buffer, decoded out of it into a buffer from the free list before
// the next frame is read. A frame it cannot deliver is an error naming the
// hop and wrapping fault.ErrBadFrame; a codec failure also wraps the
// codec's error. It returns ErrClosed when the node shuts down
// mid-delivery.
func (nd *Node) handleData(peer int, want uint32, h frameHeader, body []byte, payload *comm.Box[float32]) error {
	var what string
	switch {
	case h.seq > want:
		what = fmt.Sprintf("sequence gap, want seq %d", want)
	case h.seq < want:
		what = fmt.Sprintf("sequence repeat, want seq %d", want)
	case bodyCRC(body) != h.crc:
		what = "CRC mismatch"
	case h.flags&flagCompressed != 0 && h.tos != comm.ToSCompress:
		what = "compressed frame without its ToS"
	}
	if what != "" {
		return fmt.Errorf("tcpfabric: %d->%d seq %d: %s: %w", peer, nd.id, h.seq, what, fault.ErrBadFrame)
	}
	if !viewed(h) {
		payload = nd.in[peer].Draw(int(h.count))
		var err error
		if h.flags&flagCompressed != 0 {
			// The decoder writes over the drawn buffer, which holds count.
			sp := nd.cluster.rec.Span(nd.id, -1, obs.PhaseDecompress)
			_, err = nd.de.DecompressInto(payload.Buf, body, int(h.bitLen), int(h.count))
			sp.End()
		} else {
			err = decodeRawPayload(payload.Buf, h, body)
		}
		if err != nil {
			return fmt.Errorf("tcpfabric: %d->%d seq %d: %w: %w", peer, nd.id, h.seq, fault.ErrBadFrame, err)
		}
	}
	select {
	case nd.inbox[peer] <- decodedFrame{tag: int(h.tag), buf: payload}:
		return nil
	case <-nd.closed:
		return ErrClosed
	}
}
