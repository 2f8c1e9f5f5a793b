// Package hierarchy implements the multi-level organizations of the
// paper's Fig. 1: worker groups are the building block, and the
// gradient-centric ring exchange can replace either just the leaf groups
// of a conventional worker-aggregator tree (Fig. 1b) or every level of
// the hierarchy (Fig. 1c).
//
// Topology model: N workers are divided into groups of GroupSize. Within
// a group, gradients are exchanged with Algorithm 1 (ring). Across
// groups, one representative per group ("leader", the paper's per-group
// contact point) exchanges the group's aggregated gradient:
//
//   - ModeAggregatorTree (Fig. 1b): leaders send the group sums to a
//     designated global aggregator (node id = N) and receive updated
//     weights back — gradients only flow on the up leg, so only that leg
//     is compressible, and the root remains a hot spot.
//   - ModeRingOfLeaders (Fig. 1c): leaders run a second-level ring
//     exchange among themselves — gradients flow on every leg of every
//     level, so in-NIC compression applies everywhere and no node is
//     special.
//
// After the inter-group exchange, leaders hold the global gradient sum
// and broadcast it down their group ring positionally (a final intra-group
// Bcast), after which every worker applies the same update.
package hierarchy

import (
	"context"
	"fmt"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// Mode selects the inter-group organization.
type Mode int

// Modes of Fig. 1(b) and Fig. 1(c).
const (
	// ModeAggregatorTree keeps a designated global aggregator above the
	// ring groups (Fig. 1b).
	ModeAggregatorTree Mode = iota
	// ModeRingOfLeaders uses rings at every level (Fig. 1c).
	ModeRingOfLeaders
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeAggregatorTree {
		return "aggregator-tree"
	}
	return "ring-of-leaders"
}

// Topology describes a two-level cluster.
type Topology struct {
	Workers   int // total workers; must be a multiple of GroupSize
	GroupSize int
	Mode      Mode
}

// Validate checks the topology.
func (t Topology) Validate() error {
	if t.GroupSize < 2 {
		return fmt.Errorf("hierarchy: group size %d", t.GroupSize)
	}
	if t.Workers < t.GroupSize || t.Workers%t.GroupSize != 0 {
		return fmt.Errorf("hierarchy: %d workers not divisible into groups of %d",
			t.Workers, t.GroupSize)
	}
	return nil
}

// Groups returns the number of groups.
func (t Topology) Groups() int { return t.Workers / t.GroupSize }

// FabricSize returns the node count the fabric must provide: the workers
// plus, in aggregator-tree mode, the global aggregator.
func (t Topology) FabricSize() int {
	if t.Mode == ModeAggregatorTree {
		return t.Workers + 1
	}
	return t.Workers
}

// AggregatorID returns the global aggregator's node id (tree mode only).
func (t Topology) AggregatorID() int { return t.Workers }

// group returns worker id's group index and its rank within the group.
func (t Topology) group(id int) (g, rank int) {
	return id / t.GroupSize, id % t.GroupSize
}

// leader reports whether id is its group's leader (rank 0).
func (t Topology) leader(id int) bool {
	_, rank := t.group(id)
	return rank == 0
}

// leaders returns the group leaders' node ids, in group order.
func (t Topology) leaders() []int {
	ids := make([]int, t.Groups())
	for i := range ids {
		ids[i] = i * t.GroupSize
	}
	return ids
}

// Tag for the leader→member leg (the leader↔aggregator legs are ring's
// worker-aggregator exchange and carry its tags), plus the tag offsets
// that keep the two ring levels' tag spaces disjoint (the links are
// disjoint too, but disjoint tags make misrouted frames loud).
const (
	tagLeaderDown = 9500

	groupTagOffset  = 8000
	leaderTagOffset = 16000
)

// levelOptions returns the ring options for one hierarchy level: the
// caller's step deadline and chunking with the level's private tag space.
func levelOptions(opt ring.Options, tagOffset int) ring.Options {
	opt.TagOffset += tagOffset
	return opt
}

// AllReduceCtx performs the hierarchical global gradient sum on worker id:
// intra-group ring, inter-group exchange per the topology mode, and an
// intra-group broadcast of the global result. On return every worker's
// grad holds the global sum. Leaders' inter-group gradient legs honour
// tos; the tree mode's weight-like down leg does not (it carries the
// already-summed gradient from the aggregator, which the paper's WA
// system would send as weights — we keep it uncompressed for parity).
//
// All t.Workers workers must call it concurrently; in tree mode
// RunAggregatorCtx must run on node t.AggregatorID().
//
// Transport anomalies, wrong-sized payloads and context cancellation
// surface as errors. Both ring levels delegate to ring.AllReduceGroupCtx,
// so opt's StepTimeout bounds every individual hop (a wedged peer surfaces
// as a timeout naming the link, without the caller having to cancel) and
// opt's ChunkSize pipelines each block. The leader→member legs and the
// leader's round trip through the aggregator honour the deadline too.
func AllReduceCtx(ctx context.Context, t Topology, e comm.CtxPeer, grad []float32, tos uint8, finalize func([]float32), opt ring.Options) error {
	if err := t.Validate(); err != nil {
		return err
	}
	id := e.ID()
	g, _ := t.group(id)
	groupIDs := make([]int, t.GroupSize)
	for i := range groupIDs {
		groupIDs[i] = g*t.GroupSize + i
	}

	// Level 1: intra-group ring (gradients, compressible).
	if err := ring.AllReduceGroupCtx(ctx, e, groupIDs, grad, tos, finalize, levelOptions(opt, groupTagOffset)); err != nil {
		return fmt.Errorf("hierarchy: group ring: %w", err)
	}

	// Level 2: inter-group exchange by the leaders.
	if t.leader(id) {
		switch t.Mode {
		case ModeRingOfLeaders:
			if err := ring.AllReduceGroupCtx(ctx, e, t.leaders(), grad, tos, finalize, levelOptions(opt, leaderTagOffset)); err != nil {
				return fmt.Errorf("hierarchy: leader ring: %w", err)
			}
		case ModeAggregatorTree:
			// The leader is a worker of the global aggregator's hub step.
			xctx, cancel := opt.StepContext(ctx)
			rb, err := ring.WorkerExchangeCtx(xctx, e, t.AggregatorID(), grad, tos)
			cancel()
			if err != nil {
				return fmt.Errorf("hierarchy: leader %d via aggregator: %w", id, err)
			}
			copy(grad, rb)
		}
		// Level 3: broadcast the global result inside the group.
		for _, member := range groupIDs[1:] {
			if err := opt.SendStep(ctx, e, member, grad, 0, tagLeaderDown); err != nil {
				return fmt.Errorf("hierarchy: leader broadcast: %w", err)
			}
		}
	} else {
		if err := opt.RecvIntoStep(ctx, e, groupIDs[0], tagLeaderDown, grad, false); err != nil {
			return fmt.Errorf("hierarchy: member awaiting leader: %w", err)
		}
	}
	return nil
}

// RunAggregatorCtx is the global aggregator loop body for one iteration of
// ModeAggregatorTree: ring's hub step over the group leaders, returning
// the sum itself. Each per-leader gather and result leg is bounded by
// opt.StepTimeout, so one wedged leader fails the step with an error
// naming it.
func RunAggregatorCtx(ctx context.Context, t Topology, e comm.CtxPeer, gradLen int, opt ring.Options) error {
	return ring.AggregateStepCtx(ctx, e, t.leaders(), gradLen, func(sum []float32) []float32 { return sum }, opt)
}
