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
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// Comm is a communicator: one rank's handle on the collective group.
// A communicator may span the whole fabric (World) or an arbitrary member
// subset (SubWorld); ranks are always dense [0, Size()) and are mapped to
// fabric ids internally, which is how an elastic run rebuilds its
// neighbor maps after evicting a failed node.
type Comm struct {
	e           comm.CtxPeer
	members     []int // fabric ids by rank; nil = identity (full fabric)
	rank        int   // this process's rank within members
	tos         uint8
	finalize    func([]float32)
	stepTimeout time.Duration
}

// World returns rank id's communicator over fabric f.
func World(f *comm.Fabric, id int) *Comm {
	return &Comm{e: f.Endpoint(id), rank: id}
}

// WorldPeer returns a communicator over any transport peer — an
// in-process endpoint, a TCP fabric node, or a chaos-wrapped peer from
// internal/fault. Peers that do not implement comm.CtxPeer are adapted
// with blocking semantics.
func WorldPeer(p comm.Peer) *Comm {
	return &Comm{e: comm.AsCtxPeer(p), rank: p.ID()}
}

// SubWorld returns a communicator restricted to the given fabric ids, in
// rank order; p's own id must be a member. Collectives on a SubWorld only
// touch member links — the other fabric nodes are invisible — so a
// training run that loses a node can continue on the survivors by
// rebuilding its communicator over the (n−1)-member view.
func SubWorld(p comm.Peer, members []int) (*Comm, error) {
	n := p.N()
	seen := make(map[int]bool, len(members))
	rank := -1
	for i, m := range members {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("mpi: member %d out of fabric range [0,%d)", m, n)
		}
		if seen[m] {
			return nil, fmt.Errorf("mpi: duplicate member %d", m)
		}
		seen[m] = true
		if m == p.ID() {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("mpi: node %d is not in member list %v", p.ID(), members)
	}
	return &Comm{e: comm.AsCtxPeer(p), members: append([]int(nil), members...), rank: rank}, nil
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.members == nil {
		return c.e.N()
	}
	return len(c.members)
}

// id maps a communicator rank to its fabric id.
func (c *Comm) id(rank int) int {
	if c.members == nil {
		return rank
	}
	return c.members[rank]
}

// Members returns the fabric ids by rank (nil for a full-fabric World).
func (c *Comm) Members() []int { return c.members }

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
func (c *Comm) SetStepTimeout(d time.Duration) { c.stepTimeout = d }

// stepCtx derives the per-step context.
func (c *Comm) stepCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.stepTimeout > 0 {
		return context.WithTimeout(ctx, c.stepTimeout)
	}
	return ctx, func() {}
}

// sendStep is one deadline-bounded send to the given communicator rank.
func (c *Comm) sendStep(ctx context.Context, dst int, vec []float32, tos uint8, tag int) error {
	sctx, cancel := c.stepCtx(ctx)
	defer cancel()
	if err := c.e.SendCtx(sctx, c.id(dst), vec, tos, tag); err != nil {
		return fmt.Errorf("mpi: rank %d send to rank %d: %w", c.Rank(), dst, err)
	}
	return nil
}

// recvStep is one deadline-bounded receive from the given communicator rank.
func (c *Comm) recvStep(ctx context.Context, src int, tag int) ([]float32, error) {
	sctx, cancel := c.stepCtx(ctx)
	defer cancel()
	rb, err := c.e.RecvCtx(sctx, c.id(src), tag)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d recv from rank %d: %w", c.Rank(), src, err)
	}
	return rb, nil
}

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
	return ring.AllReduceGroupCtx(ctx, c.e, c.members, vec, c.tos, c.finalize, ring.Options{StepTimeout: c.stepTimeout})
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
				if err := c.sendStep(ctx, peer, vec, 0, tagBcast+dist); err != nil {
					return err
				}
			}
		case vrank%(2*dist) == dist:
			peer := (vrank - dist + root) % n
			rb, err := c.recvStep(ctx, peer, tagBcast+dist)
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
				rb, err := c.recvStep(ctx, peer, tagBase+dist)
				if err != nil {
					return err
				}
				for i, v := range rb {
					acc[i] += v
				}
			}
		} else if vrank%(2*dist) == dist {
			peer := (vrank - dist + root) % n
			if err := c.sendStep(ctx, peer, acc, tos, tagBase+dist); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// GatherCtx collects every rank's vec at root, returned indexed by rank;
// other ranks receive nil. Vectors may differ in length.
func (c *Comm) GatherCtx(ctx context.Context, vec []float32, root int) ([][]float32, error) {
	n, rank := c.Size(), c.Rank()
	if rank != root {
		if err := c.sendStep(ctx, root, vec, c.tos, tagGather); err != nil {
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
		rb, err := c.recvStep(ctx, r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = rb
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
