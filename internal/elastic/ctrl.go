// The TCP control channel: the same Coordinator state machine, reachable
// over a real socket. A CtrlServer wraps an in-process Coordinator and
// serves the Membership protocol — heartbeats, epoch-numbered view
// reads, join requests, rendezvous gathers — to Client instances over
// CRC32-C framed request/response messages (the control-plane sibling of
// tcpfabric's INCP data framing). The client retransmits over reconnects
// with bounded, jittered backoff, and the server dedupes the one
// non-idempotent operation (a completed gather) through a bounded result
// cache, so a request lost to a flapping connection converges instead of
// wedging the barrier.
//
// Partition safety is asymmetric by design: the coordinator side holds
// the one true epoch sequence, so "split-brain" can only mean a worker
// continuing to train while cut off from it. A Client that cannot reach
// the coordinator for PartitionAfter declares itself partitioned and
// fails closed — View() reports the caller evicted, collectives abort —
// so a partitioned minority halts while the majority (the side that can
// still reach the coordinator) reconfigures and continues. The server
// grades the silence for the failure detector: a dropped control
// connection marks the node link-down (partition suspected), heartbeats
// merely stopping on a live connection suggest a hung process.
package elastic

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/frame"
)

// ErrPartitioned reports that the control channel has been unreachable
// for longer than the partition threshold: the caller must halt rather
// than keep training on a view it can no longer validate.
var ErrPartitioned = errors.New("elastic: control channel partitioned; halting to avoid split-brain")

// CtrlPeer is the pseudo node id of the coordinator endpoint for chaos
// addressing: fault.Link{Src: workerID, Dst: CtrlPeer} configures faults
// on a worker's control link.
const CtrlPeer = -1

// Control frame layout (little-endian):
//
//	u32 magic "INCC"
//	u8  kind, u8 status, u16 reserved
//	u32 request id
//	u32 payload length, payload bytes
//	u32 CRC32-C of all preceding bytes
const (
	ctrlMagic      = 0x494E4343
	ctrlMaxPayload = 256 << 20
)

const (
	ckHello byte = iota + 1
	ckBeat
	ckView
	ckAwaitEvent
	ckGather
	ckReportDead
	ckReportAnomaly
	ckDepart
	ckProposeHalt
	ckHaltIter
	ckJoin
	ckProgress // server -> client: a parked gather is still alive
)

const (
	stOK byte = iota
	stEpochChanged
	stEvicted
	stClosed
	stError
)

func writeCtrlFrame(bw *bufio.Writer, kind, status byte, reqID uint32, payload []byte) error {
	w := frame.NewWriter(bw)
	w.U32(ctrlMagic)
	w.U8(kind)
	w.U8(status)
	w.U8(0) // reserved
	w.U8(0)
	w.U32(reqID)
	w.U32(uint32(len(payload)))
	w.Bytes(payload)
	w.Sum()
	if err := w.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// readCtrlFrame reads one frame off a connection. The payload grows only
// as its bytes arrive, so a header declaring ctrlMaxPayload costs a peer
// that sends nothing after it one chunk, not 256 MiB. io.EOF means the
// stream ended on a frame boundary; a torn frame is io.ErrUnexpectedEOF.
func readCtrlFrame(br *bufio.Reader) (kind, status byte, reqID uint32, payload []byte, err error) {
	r := frame.NewReader(br)
	if magic := r.U32(); magic != ctrlMagic {
		r.Fail(fmt.Errorf("elastic: bad control magic %08x", magic))
	}
	kind, status = r.U8(), r.U8()
	r.U8() // reserved
	r.U8()
	reqID = r.U32()
	plen := r.U32()
	if plen > ctrlMaxPayload {
		r.Fail(fmt.Errorf("elastic: control payload of %d bytes exceeds limit", plen))
	}
	payload = r.Bytes(int(plen))
	r.Verify()
	if err = r.Err(); err != nil {
		return 0, 0, 0, nil, err
	}
	return kind, status, reqID, payload, nil
}

// --- payload encoding -------------------------------------------------

// nilF32s marks a nil float slice on the wire (distinct from empty).
const nilF32s = ^uint32(0)

func appendF32s(b []byte, vals []float32) []byte {
	if vals == nil {
		return frame.AppendU32(b, nilF32s)
	}
	return frame.AppendF32s(frame.AppendU32(b, uint32(len(vals))), vals)
}

func boolByte(set bool) byte {
	if set {
		return 1
	}
	return 0
}

func appendItem(b []byte, it Item) []byte {
	b = append(frame.AppendU64(b, uint64(it.Iter)), boolByte(it.Joining))
	return appendF32s(frame.AppendU64(b, it.Cursor), it.Residual)
}

func appendView(b []byte, v View) []byte {
	b = frame.AppendU32(b, uint32(v.Epoch))
	b = frame.AppendU32(b, uint32(len(v.Members)))
	for _, m := range v.Members {
		b = frame.AppendU32(b, uint32(m))
	}
	return b
}

// over opens the cursor that read the frame off the socket over its
// received payload: the same sticky-error Reader, now on a sized source, so
// every count inside the payload is checked against the bytes left in it
// before it allocates.
func over(payload []byte) *frame.Reader { return frame.NewReader(bytes.NewReader(payload)) }

func f32s(r *frame.Reader) []float32 {
	n := r.U32()
	if n == nilF32s {
		return nil
	}
	return r.F32s(int(n))
}

func item(r *frame.Reader) Item {
	return Item{Iter: int64(r.U64()), Joining: r.U8() != 0, Cursor: r.U64(), Residual: f32s(r)}
}

// count reads how many members follow. Nothing is allocated from it — the
// decoders below grow their result one decoded member at a time — but a
// universe past 2^20 nodes is malformed whatever the payload holds.
func count(r *frame.Reader) uint32 {
	n := r.U32()
	if n > 1<<20 {
		r.Fail(fmt.Errorf("elastic: implausible member count %d", n))
	}
	return n
}

func view(r *frame.Reader) View {
	v := View{Epoch: int(r.U32())}
	for n := count(r); n > 0 && r.Err() == nil; n-- {
		v.Members = append(v.Members, int(r.U32()))
	}
	return v
}

// awaitEvent decodes an await-event reply: whether the view moved, whether
// a death moved it, and the view.
func awaitEvent(r *frame.Reader) (changed, fatal bool, v View) {
	return r.U8() != 0, r.U8() != 0, view(r)
}

// gatherReply decodes a completed rendezvous: every member's item.
func gatherReply(r *frame.Reader) map[int]interface{} {
	vals := make(map[int]interface{})
	for n := count(r); n > 0 && r.Err() == nil; n-- {
		m := int(r.U32())
		vals[m] = item(r)
	}
	return vals
}

// --- server -----------------------------------------------------------

// CtrlServer serves a Coordinator's Membership protocol over TCP.
type CtrlServer struct {
	coord *Coordinator
	ln    net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	completed map[string][]byte // gather key -> encoded result payload
	order     []string          // FIFO eviction for the gather cache
}

// gatherCacheCap bounds the completed-gather replay cache. Keys carry the
// epoch and iteration, so entries are never revisited once every member
// has moved past them; the cap only needs to cover the reconnect window.
const gatherCacheCap = 256

// ServeCtrl starts a control-channel server for coord on addr
// (host:port; port 0 picks an ephemeral port). Close the server before
// closing the coordinator.
func ServeCtrl(addr string, coord *Coordinator) (*CtrlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("elastic: control listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &CtrlServer{
		coord:     coord,
		ln:        ln,
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
		completed: make(map[string][]byte),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address for clients to dial.
func (s *CtrlServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, drops every client connection, and waits for
// the handlers to drain.
func (s *CtrlServer) Close() {
	s.cancel()
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *CtrlServer) closing() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

func (s *CtrlServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle runs one client connection: a hello identifying the worker,
// then a serial request/response loop. The connection's drop (for any
// reason but a clean server shutdown) marks the worker link-down for the
// failure detector's suspect grading.
func (s *CtrlServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, _, reqID, payload, err := readCtrlFrame(br)
	if err != nil || kind != ckHello {
		return
	}
	hello := over(payload)
	id := int(hello.U32())
	if hello.Err() != nil {
		return
	}
	if err := writeCtrlFrame(bw, ckHello, stOK, reqID, frame.AppendU32(nil, uint32(s.coord.universe))); err != nil {
		return
	}
	s.coord.SetLinkDown(id, nil)
	conn.SetReadDeadline(time.Time{})

	connCtx, connCancel := context.WithCancel(s.ctx)
	defer connCancel()
	for {
		kind, _, reqID, payload, err := readCtrlFrame(br)
		if err != nil {
			if !s.closing() && !errors.Is(err, io.EOF) {
				s.coord.SetLinkDown(id, err)
			} else if !s.closing() {
				s.coord.SetLinkDown(id, errors.New("control connection closed"))
			}
			return
		}
		if err := s.dispatch(connCtx, conn, bw, id, kind, reqID, payload); err != nil {
			if !s.closing() {
				s.coord.SetLinkDown(id, err)
			}
			return
		}
	}
}

// reply writes one response frame under a write deadline.
func reply(conn net.Conn, bw *bufio.Writer, kind, status byte, reqID uint32, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetWriteDeadline(time.Time{})
	return writeCtrlFrame(bw, kind, status, reqID, payload)
}

// statusOf maps coordinator errors onto wire status codes.
func statusOf(err error) (byte, []byte) {
	switch {
	case err == nil:
		return stOK, nil
	case errors.Is(err, ErrEpochChanged):
		return stEpochChanged, nil
	case errors.Is(err, ErrEvicted):
		return stEvicted, nil
	case errors.Is(err, ErrClosed):
		return stClosed, nil
	default:
		return stError, frame.AppendStr(nil, err.Error())
	}
}

func (s *CtrlServer) dispatch(connCtx context.Context, conn net.Conn, bw *bufio.Writer, id int, kind byte, reqID uint32, payload []byte) error {
	req := over(payload)
	switch kind {
	case ckBeat:
		s.coord.Beat(id)
		return reply(conn, bw, ckBeat, stOK, reqID, nil)
	case ckView:
		return reply(conn, bw, ckView, stOK, reqID, appendView(nil, s.coord.View()))
	case ckAwaitEvent:
		after, timeoutMs, beat := int(req.U32()), req.U32(), req.U8() != 0
		if err := req.Err(); err != nil {
			return err
		}
		if beat {
			s.coord.Beat(id)
		}
		wctx, wcancel := context.WithTimeout(connCtx, time.Duration(timeoutMs)*time.Millisecond)
		v, fatal, err := s.coord.WaitEvent(wctx, after)
		wcancel()
		switch {
		case err == nil:
			return reply(conn, bw, ckAwaitEvent, stOK, reqID, appendView([]byte{1, boolByte(fatal)}, v))
		case errors.Is(err, context.DeadlineExceeded):
			// No event inside the poll window: not an error, just try again.
			return reply(conn, bw, ckAwaitEvent, stOK, reqID, appendView([]byte{0, 0}, s.coord.View()))
		default:
			st, body := statusOf(err)
			return reply(conn, bw, ckAwaitEvent, st, reqID, body)
		}
	case ckGather:
		epoch, key, it := int(req.U32()), req.Str(), item(req)
		if err := req.Err(); err != nil {
			return err
		}
		return s.gather(connCtx, conn, bw, id, reqID, epoch, key, it)
	case ckReportDead:
		node, msg := int(req.U32()), req.Str()
		if err := req.Err(); err != nil {
			return err
		}
		s.coord.ReportDead(node, errors.New(msg))
		return reply(conn, bw, ckReportDead, stOK, reqID, nil)
	case ckReportAnomaly:
		node, msg := int(req.U32()), req.Str()
		if err := req.Err(); err != nil {
			return err
		}
		s.coord.ReportAnomaly(node, errors.New(msg))
		return reply(conn, bw, ckReportAnomaly, stOK, reqID, nil)
	case ckDepart:
		s.coord.Depart(id)
		return reply(conn, bw, ckDepart, stOK, reqID, nil)
	case ckProposeHalt:
		own := int(int64(req.U64()))
		if err := req.Err(); err != nil {
			return err
		}
		h := s.coord.ProposeHalt(own)
		return reply(conn, bw, ckProposeHalt, stOK, reqID, frame.AppendU64(nil, uint64(int64(h))))
	case ckHaltIter:
		return reply(conn, bw, ckHaltIter, stOK, reqID, frame.AppendU64(nil, uint64(int64(s.coord.HaltIter()))))
	case ckJoin:
		v, err := s.coord.Join(id)
		if err != nil {
			st, body := statusOf(err)
			return reply(conn, bw, ckJoin, st, reqID, body)
		}
		return reply(conn, bw, ckJoin, stOK, reqID, appendView(nil, v))
	default:
		return fmt.Errorf("elastic: unknown control request kind %d", kind)
	}
}

// gather serves one rendezvous request. A gather legitimately parks until
// the last member arrives, so the handler streams progress frames while
// blocked — the client reads them as liveness — and caches the encoded
// result on completion so a client that lost its connection mid-park can
// retransmit the request and still receive the outcome (its value is
// already registered; re-registering the same value is idempotent).
func (s *CtrlServer) gather(connCtx context.Context, conn net.Conn, bw *bufio.Writer, id int, reqID uint32, epoch int, key string, item Item) error {
	s.mu.Lock()
	cached, ok := s.completed[key]
	s.mu.Unlock()
	if ok {
		return reply(conn, bw, ckGather, stOK, reqID, cached)
	}

	type result struct {
		vals map[int]interface{}
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		vals, err := s.coord.Gather(connCtx, id, epoch, key, item)
		resCh <- result{vals, err}
	}()
	tick := time.NewTicker(300 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case res := <-resCh:
			if res.err != nil {
				st, body := statusOf(res.err)
				return reply(conn, bw, ckGather, st, reqID, body)
			}
			body := frame.AppendU32(nil, uint32(len(res.vals)))
			for m, v := range res.vals {
				it, ok := v.(Item)
				if !ok {
					st, eb := statusOf(fmt.Errorf("elastic: gather %q holds a non-Item value from member %d", key, m))
					return reply(conn, bw, ckGather, st, reqID, eb)
				}
				body = appendItem(frame.AppendU32(body, uint32(m)), it)
			}
			s.mu.Lock()
			if _, dup := s.completed[key]; !dup {
				s.completed[key] = body
				s.order = append(s.order, key)
				if len(s.order) > gatherCacheCap {
					delete(s.completed, s.order[0])
					s.order = s.order[1:]
				}
			}
			s.mu.Unlock()
			return reply(conn, bw, ckGather, stOK, reqID, body)
		case <-tick.C:
			if err := reply(conn, bw, ckProgress, stOK, reqID, nil); err != nil {
				// The client is gone; abandon the park so the coordinator
				// stops heartbeating on its behalf.
				return err
			}
		case <-connCtx.Done():
			return connCtx.Err()
		}
	}
}

// --- client -----------------------------------------------------------

// CtrlOptions tunes a control-channel client.
type CtrlOptions struct {
	// PartitionAfter declares the client partitioned when every control
	// RPC has failed for this long; the client then fails closed (the
	// minority-halt rule). Default 2s.
	PartitionAfter time.Duration
	// Chaos, if non-nil, injects deterministic faults into the control
	// link (fault.Link{Src: id, Dst: CtrlPeer}): a Drop verdict breaks
	// the connection as a real partition would, exercising reconnect,
	// backoff, and the partition detector.
	Chaos *fault.Injector
	// Seq, if non-nil, is the shared chaos sequence counter for this
	// worker's control link, persisting across client generations (a
	// restarted worker process keeps advancing the same fault schedule).
	// Nil gives the client a private counter starting at zero.
	Seq *atomic.Uint64
}

// callTimeout bounds one request/response attempt (progress frames
// extend it).
const callTimeout = 2 * time.Second

func (o CtrlOptions) withDefaults() CtrlOptions {
	if o.PartitionAfter <= 0 {
		o.PartitionAfter = 2 * time.Second
	}
	if o.Seq == nil {
		o.Seq = new(atomic.Uint64)
	}
	return o
}

// ctrlConn is one client connection with its serial request/response
// discipline (the worker issues one RPC at a time; the watcher owns a
// second connection so its polls never queue behind a parked gather).
// rpcMu serializes whole RPC rounds; mu guards only the connection
// pointer, so Close can break an in-flight round by closing the socket
// without waiting for it.
type ctrlConn struct {
	rpcMu sync.Mutex
	mu    sync.Mutex
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint32
}

// snapshot returns the live connection, if any. Only the RPC holder
// (under rpcMu) advances reqID or replaces the connection.
func (cc *ctrlConn) snapshot() (net.Conn, *bufio.Reader, *bufio.Writer) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.conn, cc.br, cc.bw
}

func (cc *ctrlConn) install(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	cc.mu.Lock()
	cc.conn, cc.br, cc.bw = conn, br, bw
	cc.mu.Unlock()
}

// drop closes and clears the connection if it is still the given one (a
// concurrent closer or reconnect may have moved on already).
func (cc *ctrlConn) drop(conn net.Conn) {
	cc.mu.Lock()
	if cc.conn == conn && conn != nil {
		conn.Close()
		cc.conn, cc.br, cc.bw = nil, nil, nil
	}
	cc.mu.Unlock()
}

func (cc *ctrlConn) closeAny() {
	cc.mu.Lock()
	if cc.conn != nil {
		cc.conn.Close()
		cc.conn, cc.br, cc.bw = nil, nil, nil
	}
	cc.mu.Unlock()
}

// Client speaks the Membership protocol to a CtrlServer. It caches the
// last observed view and mirrors the coordinator's epoch-context
// semantics locally: a death event cancels the current context, a
// departure or join does not.
type Client struct {
	id       int
	universe int
	addr     string
	opts     CtrlOptions

	main  ctrlConn
	watch ctrlConn

	lastOK atomic.Int64 // unix nanos of the last successful RPC
	part   atomic.Bool  // sticky: the client has failed closed

	mu        sync.Mutex
	view      View
	epochCtx  context.Context
	epochStop context.CancelFunc

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ Membership = (*Client)(nil)

// DialCtrl connects worker id to a control server and starts the event
// watcher. The returned client implements Membership.
func DialCtrl(addr string, id int, opts CtrlOptions) (*Client, error) {
	ectx, estop := context.WithCancel(context.Background())
	cl := &Client{
		id:        id,
		addr:      addr,
		opts:      opts.withDefaults(),
		epochCtx:  ectx,
		epochStop: estop,
		closed:    make(chan struct{}),
	}
	cl.lastOK.Store(time.Now().UnixNano())
	// The first view read verifies the server is reachable and primes the
	// cache (and, under chaos, lets a dial inside a partition window fail
	// the way a real unreachable coordinator would).
	v, err := cl.askView(ckView)
	if err != nil {
		estop()
		cl.closeConns()
		return nil, err
	}
	cl.wg.Add(1)
	go cl.watchLoop(v.Epoch)
	return cl, nil
}

// Close drops both connections and stops the watcher. It never touches
// the membership — call Depart first for a graceful exit.
func (cl *Client) Close() {
	cl.closeOnce.Do(func() {
		close(cl.closed)
		cl.closeConns()
	})
	cl.wg.Wait()
}

func (cl *Client) closeConns() {
	cl.main.closeAny()
	cl.watch.closeAny()
}

func (cl *Client) isClosed() bool {
	select {
	case <-cl.closed:
		return true
	default:
		return false
	}
}

// Partitioned reports whether the client has failed closed.
func (cl *Client) Partitioned() bool { return cl.part.Load() }

// declarePartition fails the client closed: the epoch context cancels
// (aborting any in-flight collective) and every later call behaves as if
// this node were evicted — which, on the majority side, it soon is.
func (cl *Client) declarePartition() {
	if cl.part.CompareAndSwap(false, true) {
		cl.epochStop()
		cl.closeConns()
	}
}

// noteFailure records one failed attempt and trips the partition
// detector when the channel has been dark past the threshold.
func (cl *Client) noteFailure() error {
	if time.Since(time.Unix(0, cl.lastOK.Load())) > cl.opts.PartitionAfter {
		cl.declarePartition()
		return ErrPartitioned
	}
	return nil
}

// retryDelay is the jittered backoff between reconnect attempts, keyed
// deterministically so simultaneous reconnects after a heal spread out
// instead of re-colliding.
func (cl *Client) retryDelay(attempt int) time.Duration {
	base := 10 * time.Millisecond << uint(attempt)
	if base > 200*time.Millisecond {
		base = 200 * time.Millisecond
	}
	h := uint64(cl.id)<<32 ^ uint64(attempt)
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	u := float64(h>>11) / float64(1<<53)
	return time.Duration(float64(base) * (0.5 + 0.5*u))
}

// ensureConn dials and performs the hello handshake if the connection is
// down. Caller holds cc.rpcMu.
func (cl *Client) ensureConn(cc *ctrlConn) (net.Conn, *bufio.Reader, *bufio.Writer, error) {
	if conn, br, bw := cc.snapshot(); conn != nil {
		return conn, br, bw, nil
	}
	conn, err := net.DialTimeout("tcp", cl.addr, callTimeout)
	if err != nil {
		return nil, nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	cc.reqID++
	conn.SetDeadline(time.Now().Add(callTimeout))
	if err := writeCtrlFrame(bw, ckHello, stOK, cc.reqID, frame.AppendU32(nil, uint32(cl.id))); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	kind, _, _, body, err := readCtrlFrame(br)
	if err != nil || kind != ckHello {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("elastic: unexpected hello response kind %d", kind)
		}
		return nil, nil, nil, err
	}
	hello := over(body)
	if u := int(hello.U32()); hello.Err() == nil {
		cl.mu.Lock()
		cl.universe = u
		cl.mu.Unlock()
	}
	conn.SetDeadline(time.Time{})
	cc.install(conn, br, bw)
	if cl.isClosed() || cl.part.Load() {
		// Lost the race with Close/partition: do not resurrect a socket
		// the closer already swept.
		cc.drop(conn)
		return nil, nil, nil, ErrClosed
	}
	return conn, br, bw, nil
}

// attempt performs one request/response round trip on cc. Progress
// frames extend the response deadline; responses to abandoned requests
// are skipped by request id.
func (cl *Client) attempt(ctx context.Context, cc *ctrlConn, kind byte, payload []byte) (byte, []byte, error) {
	if ch := cl.opts.Chaos; ch != nil {
		seq := cl.opts.Seq.Add(1)
		if ch.Decide(cl.id, CtrlPeer, seq, 0).Drop {
			// The partition eats the request. Break the connection like a
			// real link failure so the server grades the silence correctly,
			// and pace the failure loop like a dial timeout would.
			cc.closeAny()
			select {
			case <-time.After(2 * time.Millisecond):
			case <-cl.closed:
			}
			return 0, nil, errors.New("elastic: control frame lost (injected)")
		}
	}
	conn, br, bw, err := cl.ensureConn(cc)
	if err != nil {
		return 0, nil, err
	}
	cc.reqID++
	want := cc.reqID
	conn.SetWriteDeadline(time.Now().Add(callTimeout))
	if err := writeCtrlFrame(bw, kind, stOK, want, payload); err != nil {
		cc.drop(conn)
		return 0, nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	deadline := time.Now().Add(callTimeout)
	for {
		conn.SetReadDeadline(deadline)
		rkind, status, rid, body, err := readCtrlFrame(br)
		if err != nil {
			cc.drop(conn)
			return 0, nil, err
		}
		if rid != want {
			continue // response to an abandoned earlier request
		}
		if rkind == ckProgress {
			// The server is parked on our behalf (a gather waiting for the
			// last member): alive, just not done. Extend the deadline, and
			// honor the caller's context so an aborting run lets go.
			if err := ctx.Err(); err != nil {
				cc.drop(conn)
				return 0, nil, err
			}
			deadline = time.Now().Add(callTimeout)
			continue
		}
		conn.SetReadDeadline(time.Time{})
		cl.lastOK.Store(time.Now().UnixNano())
		return status, body, nil
	}
}

// call runs one RPC with reconnect-and-retransmit until it succeeds, the
// context ends, the client closes, or the partition detector trips.
func (cl *Client) call(ctx context.Context, cc *ctrlConn, kind byte, payload []byte) (byte, []byte, error) {
	cc.rpcMu.Lock()
	defer cc.rpcMu.Unlock()
	for attempt := 0; ; attempt++ {
		if cl.part.Load() {
			return 0, nil, ErrPartitioned
		}
		if cl.isClosed() {
			return 0, nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		status, body, err := cl.attempt(ctx, cc, kind, payload)
		if err == nil {
			return status, body, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, nil, err
		}
		if perr := cl.noteFailure(); perr != nil {
			return 0, nil, perr
		}
		select {
		case <-time.After(cl.retryDelay(attempt)):
		case <-cl.closed:
			return 0, nil, ErrClosed
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}

// statusErr maps a response status back onto the coordinator's errors.
func statusErr(status byte, body []byte) error {
	switch status {
	case stOK:
		return nil
	case stEpochChanged:
		return ErrEpochChanged
	case stEvicted:
		return ErrEvicted
	case stClosed:
		return ErrClosed
	default:
		r := over(body)
		if msg := r.Str(); r.Err() == nil && msg != "" {
			return errors.New(msg)
		}
		return errors.New("control request failed")
	}
}

// ask runs one RPC on the worker's own connection and opens a cursor over
// the reply body; a reply status other than stOK comes back as its error.
func (cl *Client) ask(ctx context.Context, kind byte, req []byte) (*frame.Reader, error) {
	status, body, err := cl.call(ctx, &cl.main, kind, req)
	if err == nil {
		err = statusErr(status, body)
	}
	if err != nil {
		return nil, err
	}
	return over(body), nil
}

// askView runs an RPC that answers with a view and caches the answer.
func (cl *Client) askView(kind byte) (View, error) {
	r, err := cl.ask(context.Background(), kind, nil)
	if err != nil {
		return View{}, err
	}
	v := view(r)
	if err := r.Err(); err != nil {
		return View{}, err
	}
	cl.setView(v)
	return v, nil
}

func (cl *Client) setView(v View) {
	cl.mu.Lock()
	cl.view = v
	cl.mu.Unlock()
}

// watchLoop polls the server for membership events on its own
// connection, mirroring epoch transitions into the local view cache and
// epoch context. It never beats on the worker's behalf: liveness must
// come from the worker's own Beat calls (or a gather parked for it), or
// a hung worker would look alive forever.
func (cl *Client) watchLoop(after int) {
	defer cl.wg.Done()
	for !cl.isClosed() && !cl.part.Load() {
		// A 1000 ms server-side poll window, no beat.
		req := append(frame.AppendU32(frame.AppendU32(nil, uint32(after)), 1000), 0)
		status, body, err := cl.call(context.Background(), &cl.watch, ckAwaitEvent, req)
		if err != nil {
			return // closed or partitioned; declarePartition already fired
		}
		if status != stOK {
			if errors.Is(statusErr(status, body), ErrClosed) {
				return
			}
			continue
		}
		r := over(body)
		changed, fatal, v := awaitEvent(r)
		if r.Err() != nil || !changed {
			continue
		}
		cl.mu.Lock()
		cl.view = v
		if fatal && !cl.part.Load() {
			// A death doomed the superseded epochs' collectives: cancel the
			// local epoch context exactly as the coordinator cancels its own.
			cl.epochStop()
			cl.epochCtx, cl.epochStop = context.WithCancel(context.Background())
		}
		cl.mu.Unlock()
		after = v.Epoch
	}
}

// Beat implements Membership. It is best-effort by design — a single
// failed attempt only advances the partition detector; the worker keeps
// training until View tells it otherwise.
func (cl *Client) Beat(id int) {
	if cl.part.Load() || cl.isClosed() {
		return
	}
	cl.main.rpcMu.Lock()
	defer cl.main.rpcMu.Unlock()
	if _, _, err := cl.attempt(context.Background(), &cl.main, ckBeat, nil); err != nil {
		cl.noteFailure()
	}
}

// View implements Membership. A partitioned client reports the last
// known view without itself: it cannot distinguish being evicted from
// being cut off, and halting is the only safe reading of either.
func (cl *Client) View() View {
	if !cl.part.Load() && !cl.isClosed() {
		if v, err := cl.askView(ckView); err == nil {
			return v
		}
	}
	cl.mu.Lock()
	v := cl.view.clone()
	cl.mu.Unlock()
	if !cl.part.Load() {
		return v // closed client: the cached view is the best answer left
	}
	members := make([]int, 0, len(v.Members))
	for _, m := range v.Members {
		if m != cl.id {
			members = append(members, m)
		}
	}
	return View{Epoch: v.Epoch + 1, Members: members}
}

// EpochContext implements Membership with the coordinator's semantics: a
// context that cancels when the epoch is superseded by a death. The
// client mirrors transitions through its watcher, so cancellation lags
// the coordinator by at most one watch round trip — the same window in
// which an in-process worker holding a stale view would still be running
// its doomed exchange.
func (cl *Client) EpochContext(epoch int) context.Context {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if !cl.part.Load() && cl.view.Epoch == epoch {
		return cl.epochCtx
	}
	return canceledCtx
}

// AwaitEpoch implements Membership by polling the event endpoint (each
// poll beats, matching the coordinator's await-side heartbeating).
func (cl *Client) AwaitEpoch(ctx context.Context, id, after int) (View, error) {
	for {
		if cl.part.Load() {
			return View{}, ErrPartitioned
		}
		// A 500 ms poll window, beating on the caller's behalf.
		r, err := cl.ask(ctx, ckAwaitEvent, append(frame.AppendU32(frame.AppendU32(nil, uint32(after)), 500), 1))
		if err != nil {
			return View{}, err
		}
		changed, _, v := awaitEvent(r) // fatal: the watcher handles context cancellation
		if err := r.Err(); err != nil {
			return View{}, err
		}
		if changed {
			cl.setView(v)
			return v, nil
		}
	}
}

// Gather implements Membership. The value must be an Item (the run's
// wire-serializable gather shape).
func (cl *Client) Gather(ctx context.Context, id, epoch int, key string, value interface{}) (map[int]interface{}, error) {
	if cl.part.Load() {
		return nil, ErrEvicted
	}
	it, ok := value.(Item)
	if !ok {
		return nil, fmt.Errorf("elastic: control-channel gather %q requires an elastic.Item value, got %T", key, value)
	}
	r, err := cl.ask(ctx, ckGather, appendItem(frame.AppendStr(frame.AppendU32(nil, uint32(epoch)), key), it))
	if err != nil {
		if errors.Is(err, ErrPartitioned) {
			return nil, ErrEvicted
		}
		return nil, err
	}
	vals := gatherReply(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("elastic: malformed gather response: %w", err)
	}
	return vals, nil
}

// ReportDead implements Membership.
func (cl *Client) ReportDead(id int, cause error) {
	msg := "declared dead"
	if cause != nil {
		msg = cause.Error()
	}
	cl.call(context.Background(), &cl.main, ckReportDead, frame.AppendStr(frame.AppendU32(nil, uint32(id)), msg))
}

// ReportAnomaly implements Membership.
func (cl *Client) ReportAnomaly(node int, err error) {
	if err == nil {
		return
	}
	cl.call(context.Background(), &cl.main, ckReportAnomaly, frame.AppendStr(frame.AppendU32(nil, uint32(node)), err.Error()))
}

// Depart implements Membership.
func (cl *Client) Depart(id int) {
	cl.call(context.Background(), &cl.main, ckDepart, nil)
}

// ProposeHalt implements Membership.
func (cl *Client) ProposeHalt(ownIter int) int {
	if r, err := cl.ask(context.Background(), ckProposeHalt, frame.AppendU64(nil, uint64(int64(ownIter)))); err == nil {
		if h := int(int64(r.U64())); r.Err() == nil {
			return h
		}
	}
	// An unreachable coordinator, or a reply that carries no answer (which
	// must not read as "halt at iteration 0"): assume our proposal won.
	return ownIter + 1
}

// HaltIter implements Membership.
func (cl *Client) HaltIter() int {
	if cl.part.Load() {
		return -1
	}
	if r, err := cl.ask(context.Background(), ckHaltIter, nil); err == nil {
		if h := int(int64(r.U64())); r.Err() == nil {
			return h
		}
	}
	return -1 // no halt agreed, as far as this client can tell
}

// Join implements Membership: it asks the coordinator to splice this
// worker into the ring at the next epoch bump.
func (cl *Client) Join(id int) (View, error) {
	if cl.part.Load() {
		return View{}, ErrPartitioned
	}
	return cl.askView(ckJoin)
}
