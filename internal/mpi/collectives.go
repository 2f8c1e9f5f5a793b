package mpi

import (
	"context"
	"fmt"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// Additional collectives rounding out the OpenMPI-like API surface of the
// paper's Sec. VI-B. AllGather and ReduceScatter are the two halves of the
// ring AllReduce (Fig. 6's P2 and P1 phases respectively), exposed
// separately; Scatter is Bcast's counterpart.

// Tag bases for the additional collectives.
const (
	tagAllGather     = 7100
	tagReduceScatter = 7200
	tagScatter       = 7300
)

// AllGatherCtx concatenates every rank's vec (all must have equal length)
// into one vector ordered by rank, using the ring pipeline (each link
// carries (p−1)·len bytes, balanced like the paper's exchange).
func (c *Comm) AllGatherCtx(ctx context.Context, vec []float32) ([]float32, error) {
	n, rank := c.Size(), c.Rank()
	out := make([]float32, n*len(vec))
	copy(out[rank*len(vec):], vec)
	if n == 1 {
		return out, nil
	}
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendBlk := ((rank-s)%n + n) % n
		recvBlk := ((rank-s-1)%n + n) % n
		if err := c.sendStep(ctx, right, out[sendBlk*len(vec):(sendBlk+1)*len(vec)], c.tos, tagAllGather+s); err != nil {
			return nil, err
		}
		rb, err := c.recvStep(ctx, left, tagAllGather+s)
		if err != nil {
			return nil, err
		}
		copy(out[recvBlk*len(vec):], rb)
	}
	return out, nil
}

// ReduceScatterCtx sums vec elementwise across ranks and returns this
// rank's 1/p block of the result (blocks are the same contiguous partition
// the ring AllReduce uses; rank i receives block i). All vectors must have
// equal length.
func (c *Comm) ReduceScatterCtx(ctx context.Context, vec []float32) ([]float32, error) {
	n, rank := c.Size(), c.Rank()
	if n == 1 {
		return append([]float32(nil), vec...), nil
	}
	work := append([]float32(nil), vec...)
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	for s := 1; s <= n-1; s++ {
		sendBlk := ((rank-s+1)%n + n) % n
		recvBlk := ((rank-s)%n + n) % n
		lo, hi := ring.BlockBounds(len(work), n, sendBlk)
		if err := c.sendStep(ctx, right, work[lo:hi], c.tos, tagReduceScatter+s); err != nil {
			return nil, err
		}
		rb, err := c.recvStep(ctx, left, tagReduceScatter+s)
		if err != nil {
			return nil, err
		}
		lo, hi = ring.BlockBounds(len(work), n, recvBlk)
		local := work[lo:hi]
		for i, v := range rb {
			local[i] += v
		}
	}
	// After n−1 steps this rank owns fully reduced block (rank+1) mod n,
	// which is exactly the block its right neighbour should return; one
	// final shift gives every rank its own block.
	ownBlk := (rank + 1) % n
	lo, hi := ring.BlockBounds(len(work), n, ownBlk)
	if err := c.sendStep(ctx, right, work[lo:hi], c.tos, tagReduceScatter); err != nil {
		return nil, err
	}
	rb, err := c.recvStep(ctx, left, tagReduceScatter)
	if err != nil {
		return nil, err
	}
	return append([]float32(nil), rb...), nil
}

// ScatterCtx distributes root's per-rank chunks: root passes chunks
// indexed by rank (each chunk may differ in length); every rank returns
// its own chunk. Non-root ranks pass nil.
func (c *Comm) ScatterCtx(ctx context.Context, chunks [][]float32, root int) ([]float32, error) {
	n, rank := c.Size(), c.Rank()
	if rank == root {
		if len(chunks) != n {
			return nil, fmt.Errorf("mpi: Scatter got %d chunks for %d ranks", len(chunks), n)
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := c.sendStep(ctx, r, chunks[r], 0, tagScatter); err != nil {
				return nil, err
			}
		}
		return append([]float32(nil), chunks[root]...), nil
	}
	return c.recvStep(ctx, root, tagScatter)
}

// Endpoint exposes the underlying transport peer, letting callers mix
// collective and point-to-point communication on one communicator.
func (c *Comm) Endpoint() comm.Peer { return c.e }
