// Package mpi provides MPI-flavoured collective communication over the
// comm fabric, mirroring the software stack of the paper's Sec. VI-B: a
// default collective API plus CollectiveCommComp — the paper's
// MPI_collective_communication_comp — which propagates a per-communicator
// flag down to the transport and tags every packet of subsequent
// collectives with ToS 0x28, opting them into in-NIC lossy compression
// (the setsockopt path in Fig. 11).
//
// The collectives take a context and return an error (AllReduceCtx,
// BcastCtx, …): each honours context deadlines, applies the communicator's
// per-step timeout, and returns transport errors, so a partition or
// straggler becomes a recoverable error rather than a crashed process.
package mpi

import (
	"context"
	"fmt"
	"slices"
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

// Compressing reports whether collectives are currently ToS-tagged.
func (c *Comm) Compressing() bool { return c.tos == comm.ToSCompress }

// SetFinalize installs the function applied to this rank's fully
// aggregated ring block during AllReduce (see ring.AllReduceCtx); required
// for bit-identical replicas when compression is enabled.
func (c *Comm) SetFinalize(f func([]float32)) { c.finalize = f }

// SetStepTimeout bounds every individual send/recv step of the Ctx
// collectives: a link that stalls longer returns a timeout error naming
// the peer, which is how stragglers and partitions surface. 0 disables.
func (c *Comm) SetStepTimeout(d time.Duration) { c.opt.StepTimeout = d }

// Tag bases; collectives use disjoint spaces from internal/ring.
const (
	tagBcast   = 4000
	tagReduce  = 5000
	tagGather  = 6000
	tagBarrier = 7000
)

// AllReduceCtx sums vec elementwise across all ranks, in place, using the
// gradient-centric ring exchange (Algorithm 1). All ranks must call it
// concurrently with equal-length vectors. Deadline expiries and transport
// errors are returned, and the communicator's step timeout bounds each
// ring hop.
func (c *Comm) AllReduceCtx(ctx context.Context, vec []float32) error {
	return ring.AllReduceCtx(ctx, c.e, vec, c.tos, c.finalize, c.opt)
}

// BcastCtx distributes root's vec to all ranks, in place, over a binomial
// tree (log₂ p rounds, matching the (1+log p)·α latency term of the
// paper's cost model). Broadcast payloads are weights in this codebase, so
// they are never ToS-tagged regardless of CollectiveCommComp.
func (c *Comm) BcastCtx(ctx context.Context, vec []float32, root int) error {
	n, rank := c.Size(), c.Rank()
	if n == 1 {
		return nil
	}
	// Rotate ranks so the root is virtual rank 0, then walk the binomial
	// tree from the widest stride down: at stride d, every rank that
	// already holds the data (vrank ≡ 0 mod 2d) forwards to vrank+d. A
	// rank receives exactly once, at the stride equal to its lowest set
	// bit, by which time its sender is guaranteed to hold the data.
	vrank := (rank - root + n) % n
	received := vrank == 0
	top := 1
	for top < n {
		top *= 2
	}
	for dist := top / 2; dist >= 1; dist /= 2 {
		switch {
		case vrank%(2*dist) == 0:
			if received && vrank+dist < n {
				peer := (vrank + dist + root) % n
				if err := c.opt.SendStep(ctx, c.e, peer, vec, 0, tagBcast+dist); err != nil {
					return err
				}
			}
		case vrank%(2*dist) == dist:
			peer := (vrank - dist + root) % n
			rb, err := c.opt.RecvStep(ctx, c.e, peer, tagBcast+dist, len(vec))
			if err != nil {
				return err
			}
			copy(vec, rb)
			received = true
		}
	}
	if !received {
		return fmt.Errorf("mpi: rank %d never received broadcast", rank)
	}
	return nil
}

// ReduceCtx sums vec elementwise across ranks into root's vec (other
// ranks' vectors are left untouched), over a binomial tree. Reduce
// payloads are gradients, so the ToS flag applies.
func (c *Comm) ReduceCtx(ctx context.Context, vec []float32, root int) error {
	return c.reduceTree(ctx, vec, root, c.tos, tagReduce)
}

// reduceTree is the binomial-tree reduction shared by ReduceCtx and the
// barrier (which forces compression off for its token).
func (c *Comm) reduceTree(ctx context.Context, vec []float32, root int, tos uint8, tagBase int) error {
	n, rank := c.Size(), c.Rank()
	if n == 1 {
		return nil
	}
	vrank := (rank - root + n) % n
	acc := vec
	if vrank != 0 {
		acc = append([]float32(nil), vec...)
	}
	for dist := 1; dist < n; dist *= 2 {
		if vrank%(2*dist) == 0 {
			if vrank+dist < n {
				peer := (vrank + dist + root) % n
				rb, err := c.opt.RecvStep(ctx, c.e, peer, tagBase+dist, len(acc))
				if err != nil {
					return err
				}
				for i, v := range rb {
					acc[i] += v
				}
			}
		} else if vrank%(2*dist) == dist {
			peer := (vrank - dist + root) % n
			if err := c.opt.SendStep(ctx, c.e, peer, acc, tos, tagBase+dist); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// GatherCtx collects every rank's vec at root, returned indexed by rank;
// other ranks receive nil. Vectors may differ in length. The result is
// root's own: each received vector is copied out of the payload the peer
// lent, which a later receive may overwrite.
func (c *Comm) GatherCtx(ctx context.Context, vec []float32, root int) ([][]float32, error) {
	n, rank := c.Size(), c.Rank()
	if rank != root {
		if err := c.opt.SendStep(ctx, c.e, root, vec, c.tos, tagGather); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]float32, n)
	out[rank] = append([]float32(nil), vec...)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		rb, err := c.opt.RecvStep(ctx, c.e, r, tagGather, ring.AnyLen) // ragged by contract
		if err != nil {
			return nil, err
		}
		out[r] = slices.Clone(rb)
	}
	return out, nil
}

// BarrierCtx blocks until all ranks have entered it: it reduces a token
// to rank 0 and broadcasts it back, with every hop deadline-bounded, so a
// crashed or partitioned rank turns the barrier into an error instead of
// a distributed hang.
func (c *Comm) BarrierCtx(ctx context.Context) error {
	token := []float32{1}
	// Barrier tokens never ride the lossy codec.
	if err := c.reduceTree(ctx, token, 0, 0, tagBarrier); err != nil {
		return err
	}
	return c.BcastCtx(ctx, token, 0)
}
