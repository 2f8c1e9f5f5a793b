// Package mpi is the communicator of the paper's Sec. VI-B software
// stack, cut to what training runs: the all-reduce, CollectiveCommComp —
// the paper's MPI_collective_communication_comp, which propagates a
// per-communicator flag down to the transport and tags every packet of
// subsequent collectives with ToS 0x28, opting them into in-NIC lossy
// compression (the setsockopt path in Fig. 11) — and the in-network
// switch all-reduce (switch.go).
//
// The collectives take a context and return an error: each honours
// context deadlines, applies the communicator's per-step timeout, and
// returns transport errors, so a partition or straggler becomes an error
// rather than a crashed process.
package mpi

import (
	"context"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// Comm is a communicator: one rank's handle on the collective group, which
// spans the whole fabric (rank = node id).
type Comm struct {
	e        comm.CtxPeer
	tos      uint8
	finalize func([]float32)
	opt      ring.Options // StepTimeout only: the bounded legs' deadline
}

// World returns rank id's communicator over fabric f.
func World(f *comm.Fabric, id int) *Comm { return WorldPeer(f.Endpoint(id)) }

// WorldPeer returns a communicator over any transport peer — an
// in-process endpoint or a TCP fabric node.
func WorldPeer(p comm.CtxPeer) *Comm { return &Comm{e: p} }

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.e.ID() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.e.N() }

// CollectiveCommComp enables or disables lossy compression for subsequent
// collectives on this communicator by setting the packet ToS field, exactly
// as the paper's specialized API does per TCP socket.
func (c *Comm) CollectiveCommComp(enabled bool) {
	if enabled {
		c.tos = comm.ToSCompress
	} else {
		c.tos = 0
	}
}

// SetFinalize installs the function applied to this rank's fully
// aggregated ring block during AllReduce (see ring.AllReduceCtx); required
// for bit-identical replicas when compression is enabled.
func (c *Comm) SetFinalize(f func([]float32)) { c.finalize = f }

// SetStepTimeout bounds every individual send/recv step of the Ctx
// collectives: a link that stalls longer returns a timeout error naming
// the peer, which is how stragglers and partitions surface. 0 disables.
func (c *Comm) SetStepTimeout(d time.Duration) { c.opt.StepTimeout = d }

// AllReduceCtx sums vec elementwise across all ranks, in place, using the
// gradient-centric ring exchange (Algorithm 1). All ranks must call it
// concurrently with equal-length vectors. Deadline expiries and transport
// errors are returned, and the communicator's step timeout bounds each
// ring hop.
func (c *Comm) AllReduceCtx(ctx context.Context, vec []float32) error {
	return ring.AllReduceCtx(ctx, c.e, vec, c.tos, c.finalize, c.opt)
}
