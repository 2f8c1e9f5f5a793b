package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/frame"
)

// Errors surfaced by the fault-tolerant wrapper.
var (
	// ErrCrashed marks an operation on a node past its scheduled crash.
	ErrCrashed = errors.New("fault: node crashed")
	// ErrMaxRetries marks a send whose retransmission budget ran out
	// (e.g. the link is partitioned).
	ErrMaxRetries = errors.New("fault: retransmission budget exhausted")
	// ErrClosed marks an operation on a closed wrapper.
	ErrClosed = errors.New("fault: peer closed")
)

// Frame kinds carried in the header's first float.
const (
	kindData float32 = 0
	kindAck  float32 = 1
	kindNack float32 = 2
)

// headerLen is the number of float32 slots prepended to each payload:
// [kind, seq, tag, crcLo, crcHi]. The CRC32-C of the payload bytes is
// split into two 16-bit halves stored as exact float32 whole numbers, so
// no header word ever needs a non-representable bit pattern.
const headerLen = 5

// Options tune the wrapper's recovery protocol.
type Options struct {
	// RTO is the initial retransmission timeout; it doubles every
	// attempt. Default 20ms.
	RTO time.Duration
	// MaxAttempts caps transmissions per frame (first try included).
	// Default 8.
	MaxAttempts int
	// Finalize, when set, is applied in place to a compressed data
	// frame's payload before it is checksummed. It must be the transport
	// codec's roundtrip (idempotent), so the payload the receiver
	// decompresses is bit-identical to the one the sender checksummed —
	// without it every lossy-compressed frame would NACK forever. The
	// header words need no such treatment: they are all 0 or whole
	// numbers ≥ 1, which the INCEPTIONN codec stores exactly (TagZero
	// and TagNone respectively).
	Finalize func([]float32)
}

// inboxDepth is the per-link buffer of delivered frames.
const inboxDepth = 256

func (o Options) withDefaults() Options {
	if o.RTO <= 0 {
		o.RTO = 20 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	return o
}

// payloadCRC checksums the bit patterns of the payload floats.
func payloadCRC(payload []float32) uint32 { return frame.ChecksumF32s(payload) }

type delivered struct {
	tag     int
	payload []float32
}

type ackEvent struct {
	seq  uint64
	nack bool
}

// Peer wraps a comm.Transport (ordered per-link message streams with an
// untagged receive the link pumps demultiplex; *comm.Endpoint is the one
// in use) with deterministic chaos injection and the stop-and-wait ARQ
// that recovers from it: data frames carry a CRC32-C checksum and per-link
// sequence number; a background pump per incoming link verifies, dedupes,
// ACKs good frames and NACKs corrupt ones; the sender retransmits on NACK
// or timeout with exponential backoff until ACKed or the attempt budget
// runs out. Control frames (ACK/NACK) ride the underlying reliable stream
// and are never faulted — the chaos models a lossy data plane under a
// reliable (in-process) control plane.
//
// A Peer owns its Transport exclusively: no other goroutine may call the
// transport's receive methods while the wrapper is live.
type Peer struct {
	t    comm.Transport
	inj  *Injector
	opts Options

	ctx    context.Context
	cancel context.CancelFunc

	inbox []chan delivered // inbox[src]: verified in-order frames
	acks  []chan ackEvent  // acks[dst]: control events from link dst→me

	sendSeq []uint64 // next data seq per dst (sender goroutine per link)
	sendMu  []sync.Mutex

	stats []*comm.LinkStats // stats[peer]: this node's view of link peer↔me

	closed atomic.Bool
	wg     sync.WaitGroup
}

var _ comm.Transport = (*Peer)(nil)

// Wrap builds the chaos wrapper around t using injector inj (nil for no
// faults — the wrapper then just adds checksums and ACK traffic).
func Wrap(t comm.Transport, inj *Injector, opts Options) *Peer {
	n := t.N()
	if inj == nil {
		inj = NewInjector(n, Config{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Peer{
		t:       t,
		inj:     inj,
		opts:    opts.withDefaults(),
		ctx:     ctx,
		cancel:  cancel,
		inbox:   make([]chan delivered, n),
		acks:    make([]chan ackEvent, n),
		sendSeq: make([]uint64, n),
		sendMu:  make([]sync.Mutex, n),
		stats:   make([]*comm.LinkStats, n),
	}
	for i := 0; i < n; i++ {
		if i == t.ID() {
			continue
		}
		p.inbox[i] = make(chan delivered, inboxDepth)
		p.acks[i] = make(chan ackEvent, 64)
		p.stats[i] = &comm.LinkStats{}
		p.wg.Add(1)
		go p.pump(i)
	}
	return p
}

// Close stops the link pumps. Outstanding operations return errors.
func (p *Peer) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.cancel()
		p.wg.Wait()
	}
}

// ID implements comm.CtxPeer.
func (p *Peer) ID() int { return p.t.ID() }

// N implements comm.CtxPeer.
func (p *Peer) N() int { return p.t.N() }

// LinkStats returns this node's recovery counters for traffic exchanged
// with peer (NACKs it issued, retransmits it performed, receive waits).
func (p *Peer) LinkStats(peer int) *comm.LinkStats { return p.stats[peer] }

// SendCtx transmits payload reliably: it blocks until the receiver ACKs
// the frame, retransmitting through injected drops and corruption, and
// fails with ErrMaxRetries when the budget is exhausted (a partitioned
// link) or ErrCrashed past this node's scheduled crash.
func (p *Peer) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if p.inj.RecordSend(p.ID()) {
		return fmt.Errorf("fault: node %d send: %w", p.ID(), ErrCrashed)
	}
	p.sendMu[dst].Lock()
	defer p.sendMu[dst].Unlock()
	seq := p.sendSeq[dst]
	p.sendSeq[dst]++

	frame := make([]float32, headerLen+len(payload))
	frame[0] = kindData
	frame[1] = float32(seq % (1 << 24))
	frame[2] = float32(tag)
	copy(frame[headerLen:], payload)
	if p.opts.Finalize != nil && tos == comm.ToSCompress {
		p.opts.Finalize(frame[headerLen:])
	}
	crc := payloadCRC(frame[headerLen:])
	frame[3] = float32(crc & 0xFFFF)
	frame[4] = float32(crc >> 16)

	rto := p.opts.RTO
	for attempt := 0; attempt < p.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.stats[dst].Retransmits.Add(1)
		}
		v := p.inj.Decide(p.ID(), dst, seq, attempt)
		if v.Delay > 0 {
			select {
			case <-time.After(v.Delay):
			case <-ctx.Done():
				return ctx.Err()
			case <-p.ctx.Done():
				return ErrClosed
			}
		}
		if !v.Drop {
			out := frame
			if v.CorruptBit >= 0 && len(payload) > 0 {
				out = append([]float32(nil), frame...)
				bit := v.CorruptBit % (32 * len(payload))
				idx := headerLen + bit/32
				out[idx] = math.Float32frombits(math.Float32bits(out[idx]) ^ 1<<(bit%32))
			}
			if err := p.put(dst, out, tos, tag); err != nil {
				return err
			}
			if v.Duplicate {
				if err := p.put(dst, out, tos, tag); err != nil {
					return err
				}
			}
		}
		// Await the receiver's verdict for this seq.
		timer := time.NewTimer(rto)
	wait:
		for {
			select {
			case ev := <-p.acks[dst]:
				if ev.seq < seq {
					continue // stale event from a duplicate
				}
				if !ev.nack {
					timer.Stop()
					return nil
				}
				break wait // NACK: retransmit immediately
			case <-timer.C:
				break wait
			case <-ctx.Done():
				timer.Stop()
				p.stats[dst].Timeouts.Add(1)
				return fmt.Errorf("fault: send %d->%d seq %d: %w", p.ID(), dst, seq, ctx.Err())
			case <-p.ctx.Done():
				timer.Stop()
				return ErrClosed
			}
		}
		timer.Stop()
		rto *= 2
	}
	return fmt.Errorf("fault: send %d->%d seq %d after %d attempts: %w",
		p.ID(), dst, seq, p.opts.MaxAttempts, ErrMaxRetries)
}

// RecvCtx returns the next verified in-order payload from src, blocking
// until ctx is done. A tag mismatch is returned as a protocol error.
func (p *Peer) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	payload, got, err := p.RecvMessageCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	if got != tag {
		return nil, fmt.Errorf("fault: node %d expected tag %d from %d, got %d", p.ID(), tag, src, got)
	}
	return payload, nil
}

// RecvMessageCtx receives the next verified in-order payload from src
// regardless of its tag, returning the payload and the tag it carried.
// It is the demultiplexing primitive the elastic layer's epoch-filtering
// receiver is built on (stale-epoch frames from an aborted exchange are
// inspected and discarded by tag).
func (p *Peer) RecvMessageCtx(ctx context.Context, src int) ([]float32, int, error) {
	if p.closed.Load() {
		return nil, 0, ErrClosed
	}
	if p.inj.Crashed(p.ID()) {
		return nil, 0, fmt.Errorf("fault: node %d recv: %w", p.ID(), ErrCrashed)
	}
	start := time.Now()
	select {
	case d := <-p.inbox[src]:
		p.stats[src].ObserveRecvWait(time.Since(start).Nanoseconds())
		return d.payload, d.tag, nil
	case <-ctx.Done():
		p.stats[src].Timeouts.Add(1)
		return nil, 0, fmt.Errorf("fault: recv %d<-%d: %w", p.ID(), src, ctx.Err())
	case <-p.ctx.Done():
		return nil, 0, ErrClosed
	}
}

// put places one frame on the underlying stream under the wrapper's own
// context (the pumps have no caller's), so Close unblocks a sender or pump
// parked on a full stream.
func (p *Peer) put(dst int, frame []float32, tos uint8, tag int) error {
	err := p.t.SendCtx(p.ctx, dst, frame, tos, tag)
	if err != nil && p.ctx.Err() != nil {
		return ErrClosed
	}
	return err
}

// sendCtl emits an ACK or NACK for seq on the (reliable) control plane.
func (p *Peer) sendCtl(dst int, kind float32, seq uint64) {
	ctl := []float32{kind, float32(seq % (1 << 24)), 0, 0, 0}
	// A failed put means the wrapper is closing: the pump's next receive
	// returns and ends it.
	_ = p.put(dst, ctl, 0, 0)
}

// pump is the per-link demultiplexer: it owns all receives from src,
// verifying and acknowledging data frames and routing control events to
// the sender side.
func (p *Peer) pump(src int) {
	defer p.wg.Done()
	var expected uint64
	for {
		frame, wireTag, err := p.t.RecvMessageCtx(p.ctx, src)
		if err != nil {
			return
		}
		if len(frame) < headerLen {
			continue // not a protocol frame; drop
		}
		seq := uint64(frame[1])
		switch frame[0] {
		case kindAck, kindNack:
			select {
			case p.acks[src] <- ackEvent{seq: seq, nack: frame[0] == kindNack}:
			case <-p.ctx.Done():
				return
			}
		case kindData:
			payload := frame[headerLen:]
			crc := payloadCRC(payload)
			if float32(crc&0xFFFF) != frame[3] || float32(crc>>16) != frame[4] {
				p.stats[src].Nacks.Add(1)
				p.sendCtl(src, kindNack, seq)
				continue
			}
			switch {
			case seq == expected%(1<<24):
				expected++
				p.sendCtl(src, kindAck, seq)
				select {
				case p.inbox[src] <- delivered{tag: wireTag, payload: append([]float32(nil), payload...)}:
				case <-p.ctx.Done():
					return
				}
			default:
				// Duplicate of an already-delivered frame: re-ACK it so a
				// sender stuck on a lost ACK makes progress; never deliver
				// twice.
				p.sendCtl(src, kindAck, seq)
			}
		}
	}
}
