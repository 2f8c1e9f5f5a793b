// The epoch-tagged transport wrapper: message tags are partitioned into
// per-epoch bands so a replayed exchange after a ring reconfiguration can
// never confuse its traffic with stale in-flight frames from the aborted
// attempt.
package elastic

import (
	"context"
	"fmt"

	"inceptionn/internal/comm"
)

// EpochTagStride partitions the tag space into per-epoch bands: every
// collective of membership epoch e runs with ring.Options.TagOffset =
// TagBase(e), so its tags fall in [e·stride, (e+1)·stride). All existing
// tag bases (ring ≤ ~2e4, mpi ≤ 7.6e3, hierarchy ≤ 2.4e4 — its tree legs
// carry ring's 3000/3001) fit far below one stride.
const EpochTagStride = 1 << 20

// TagBase returns the tag offset collectives of membership epoch e must
// use (assign it to ring.Options.TagOffset).
func TagBase(epoch int) int { return epoch * EpochTagStride }

// tagEpoch recovers the epoch band a tag belongs to.
func tagEpoch(tag int) int { return tag / EpochTagStride }

// Peer filters receives by epoch band: a frame tagged with an *older*
// epoch than the one the caller expects is residue of an aborted
// exchange — logged by count and silently discarded — while a frame from
// an unexpected band at or above the expected epoch is a protocol error.
// Sends pass through untouched (the collective's TagOffset already
// stamps them).
//
// It is built on the transport's untagged demultiplexing receive, which
// is how stale frames are inspected and discarded; comm.Endpoint and
// tcpfabric.Node both provide it.
//
// Peer is safe for the same concurrent use pattern as the underlying
// transport (one logical receiver per link).
type Peer struct {
	t       comm.Transport
	dropped int64
}

// NewPeer wraps t with epoch filtering.
func NewPeer(t comm.Transport) *Peer { return &Peer{t: t} }

var _ comm.CtxPeer = (*Peer)(nil)

// ID implements comm.CtxPeer.
func (p *Peer) ID() int { return p.t.ID() }

// N implements comm.CtxPeer.
func (p *Peer) N() int { return p.t.N() }

// SendCtx implements comm.CtxPeer.
func (p *Peer) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	return p.t.SendCtx(ctx, dst, payload, tos, tag)
}

// RecvCtx implements comm.CtxPeer: it returns the next frame from src
// carrying exactly tag, discarding any frames from earlier epoch bands
// along the way. The payload is the transport's, lent on the same terms.
func (p *Peer) RecvCtx(ctx context.Context, src int, tag int) ([]float32, error) {
	want := tagEpoch(tag)
	for {
		payload, got, err := p.t.RecvMessageCtx(ctx, src)
		if err != nil {
			return nil, err
		}
		if got == tag {
			return payload, nil
		}
		if tagEpoch(got) < want {
			p.dropped++
			continue
		}
		return nil, fmt.Errorf("elastic: node %d expected tag %d (epoch %d) from %d, got %d (epoch %d)",
			p.ID(), tag, want, src, got, tagEpoch(got))
	}
}

// Dropped returns how many stale-epoch frames this peer has discarded.
// Only meaningful between exchanges (the counter is unsynchronised).
func (p *Peer) Dropped() int64 { return p.dropped }
