// Package ring implements the paper's gradient-centric, aggregator-free
// distributed training exchange (Algorithm 1 and Fig. 6) plus the
// conventional worker-aggregator baseline it is compared against.
//
// Algorithm 1 partitions each worker's gradient vector into N blocks and
// circulates partial sums around a logical ring in two phases:
//
//	P1 (reduce-scatter, steps 1..N-1): each node receives a block from its
//	   left neighbour, sum-reduces it into the local copy, and forwards the
//	   next partial block right. After N-1 steps node i holds the fully
//	   aggregated block (i+1) mod N.
//	P2 (all-gather, steps N..2N-2): the fully aggregated blocks circulate
//	   until every node holds the complete aggregated gradient.
//
// Both legs carry *gradients*, so both are compressible by the in-NIC
// codec — the paper's key systems observation (2). The aggregation work is
// spread evenly across nodes — observation (3).
package ring

import (
	"context"
	"fmt"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// BlockBounds returns block b of a length-n vector split parts ways: the
// partition every ring-order collective in the repo shares (the first
// n%parts blocks are one element longer).
func BlockBounds(n, parts, b int) (lo, hi int) {
	per := n / parts
	rem := n % parts
	lo = b*per + min(b, rem)
	size := per
	if b < rem {
		size++
	}
	return lo, lo + size
}

// Tag bases for the two phases; step index is added so that a lagging
// receiver can never confuse messages (streams are ordered anyway).
const (
	tagReduceScatter = 1000
	tagAllGather     = 2000
)

// Options tune the fault-tolerant exchange.
type Options struct {
	// StepTimeout bounds each send+recv ring step; 0 disables the
	// per-step deadline (the caller's context still applies). A step that
	// exceeds it returns a timeout error identifying the stalled link,
	// turning a permanent partition into an error instead of a hang.
	StepTimeout time.Duration

	// ChunkSize, when positive, splits each ring block into chunks of at
	// most ChunkSize float32 values and pipelines them within a step: a
	// sender goroutine streams chunks rightward while the main loop
	// receives and reduces chunks from the left, so chunk k's codec and
	// reduction overlap chunk k+1's transport — the software analogue of
	// the paper's streaming NIC datapath. The value is rounded up to a
	// multiple of fpcodec.GroupSize so every chunk is burst-group aligned.
	// All nodes of a ring must use the same ChunkSize (it determines the
	// per-step message framing). 0 keeps whole-block steps.
	ChunkSize int

	// TagOffset is added to every message tag of the exchange. The
	// hierarchies (internal/hierarchy) give each level its own tag band,
	// so a node that sits in a group ring and the leader ring can never
	// confuse one level's messages with the other's.
	TagOffset int

	// Obs, when non-nil, records per-step send/recv phase spans (a receive
	// sums or stores its block where it lands, so its span covers that), a
	// ring_step_seconds latency histogram, and per-link receive-wait
	// counters (the straggler signal: time this node sat blocked on its
	// left neighbour). Nil disables all instrumentation at the cost of one
	// pointer compare per step.
	Obs *obs.Recorder

	// ObsIter tags recorded spans with the training iteration the
	// exchange belongs to (only meaningful with Obs set).
	ObsIter int
}

// chunkSize returns the effective group-aligned chunk size, or 0 when
// chunking is disabled.
func (o Options) chunkSize() int {
	c := o.ChunkSize
	if c <= 0 {
		return 0
	}
	if rem := c % fpcodec.GroupSize; rem != 0 {
		c += fpcodec.GroupSize - rem
	}
	return c
}

// numChunks returns how many chunks a block of blockLen values splits
// into. A zero-length block carries zero chunks (no messages at all),
// which both sides of a link compute identically.
func numChunks(blockLen, chunk int) int {
	if chunk <= 0 || blockLen <= chunk {
		if blockLen == 0 {
			return 0
		}
		return 1
	}
	return (blockLen + chunk - 1) / chunk
}

// chunkBounds returns the c-th chunk of a block of blockLen values.
func chunkBounds(blockLen, chunk, c int) (lo, hi int) {
	if chunk <= 0 {
		return 0, blockLen
	}
	lo = c * chunk
	hi = lo + chunk
	if hi > blockLen {
		hi = blockLen
	}
	return lo, hi
}

// AllReduceCtx performs the in-place gradient exchange of Algorithm 1 on
// node e.ID() of an N-node ring: on return, grad holds the elementwise sum
// of every node's input vector. All N nodes must call it concurrently with
// equal-length vectors. tos selects per-packet NIC treatment
// (comm.ToSCompress enables in-network lossy compression of every leg).
//
// finalize, if non-nil, is applied in place to the node's fully aggregated
// block between the two phases. With lossy compression this must be the
// codec roundtrip (Algorithm 1 compresses gradients before the exchange
// and decompresses after — lines 6 and 20): the block's owner otherwise
// keeps the exact sum while every other node receives the compressed
// version, and the model replicas drift apart. The codec is idempotent, so
// applying it at the owner makes every replica bit-identical.
//
// Transport anomalies, per-step deadline expiries (stragglers,
// partitions), and context cancellation return errors, so a training run
// fails closed with the cause instead of hanging.
func AllReduceCtx(ctx context.Context, e comm.CtxPeer, grad []float32, tos uint8, finalize func([]float32), opt Options) error {
	return AllReduceGroupCtx(ctx, e, nil, grad, tos, finalize, opt)
}

// AllReduceGroupCtx runs Algorithm 1 over an arbitrary member subset of
// the fabric: members lists the participating fabric ids in ring order and
// must include e.ID(). Every member must call it concurrently with the
// same member list. A nil members slice means the full fabric in id order
// (the classic AllReduceCtx). This is the primitive behind the
// hierarchical organizations (groups, leader rings).
func AllReduceGroupCtx(ctx context.Context, e comm.CtxPeer, members []int, grad []float32, tos uint8, finalize func([]float32), opt Options) error {
	id := e.ID()
	var n, rank int
	if members == nil {
		n, rank = e.N(), id
	} else {
		n = len(members)
		rank = -1
		for i, m := range members {
			if m == id {
				rank = i
				break
			}
		}
		if rank < 0 {
			return fmt.Errorf("ring: node %d is not in member list %v", id, members)
		}
	}
	if n == 1 {
		if finalize != nil {
			finalize(grad)
		}
		return nil
	}
	peer := func(r int) int {
		if members == nil {
			return r
		}
		return members[r]
	}
	right := peer((rank + 1) % n)
	left := peer((rank - 1 + n) % n)

	chunk := opt.chunkSize()

	// Metric handles are resolved once per exchange; with Obs nil they are
	// nil handles whose methods are no-ops, and the obsOn guard skips the
	// clock reads entirely.
	obsOn := opt.Obs != nil
	stepHist := opt.Obs.Histogram("ring_step_seconds")
	recvWaitNs := opt.Obs.Counter("ring_recv_wait_ns")
	var linkWaitNs *obs.Counter
	if obsOn {
		// The straggler signal per inbound link: time rank blocked on left.
		linkWaitNs = opt.Obs.Counter(fmt.Sprintf("ring_recv_wait_ns_link_%d_to_%d", left, id))
	}

	step := func(ctx context.Context, sendBlk, recvBlk, tag int, reduce bool) error {
		var stepStart time.Time
		if obsOn {
			stepStart = time.Now()
			defer func() { stepHist.Observe(time.Since(stepStart)) }()
		}
		stepCtx, cancel := ctx, context.CancelFunc(nil)
		if opt.StepTimeout > 0 {
			stepCtx, cancel = context.WithTimeout(ctx, opt.StepTimeout)
		} else if chunk > 0 {
			// Chunked steps always need a private cancel so a receive
			// failure unblocks the in-flight sender goroutine.
			stepCtx, cancel = context.WithCancel(ctx)
		}
		if cancel != nil {
			defer cancel()
		}

		slo, shi := BlockBounds(len(grad), n, sendBlk)
		rlo, rhi := BlockBounds(len(grad), n, recvBlk)
		sendBuf, recvBuf := grad[slo:shi], grad[rlo:rhi]

		if chunk <= 0 {
			// Whole-block step.
			ssp := opt.Obs.Span(id, opt.ObsIter, obs.PhaseSend)
			err := e.SendCtx(stepCtx, right, sendBuf, tos, tag)
			ssp.End()
			if err != nil {
				return fmt.Errorf("ring: node %d send block %d to %d: %w", id, sendBlk, right, err)
			}
			// The block is summed or stored where it lands: the receive
			// span covers its reduce.
			var rstart time.Time
			if obsOn {
				rstart = time.Now()
			}
			rsp := opt.Obs.Span(id, opt.ObsIter, obs.PhaseRecv)
			err = e.RecvIntoCtx(stepCtx, left, tag, recvBuf, reduce)
			rsp.End()
			if obsOn {
				w := time.Since(rstart).Nanoseconds()
				recvWaitNs.Add(w)
				linkWaitNs.Add(w)
			}
			if err != nil {
				return fmt.Errorf("ring: node %d recv block %d from %d: %w", id, recvBlk, left, err)
			}
			return nil
		}

		// Pipelined step. The send and receive blocks of any Algorithm 1
		// step are disjoint, so the sender goroutine reads sendBuf while
		// the receive loop writes recvBuf without synchronisation. All
		// chunks of a step share one tag; links deliver same-tag messages
		// in order.
		sendErr := make(chan error, 1)
		go func() {
			// One send span covers all chunks: the goroutine does nothing
			// but send, so its wall time is the step's send time.
			ssp := opt.Obs.Span(id, opt.ObsIter, obs.PhaseSend)
			defer ssp.End()
			nc := numChunks(len(sendBuf), chunk)
			for c := 0; c < nc; c++ {
				clo, chi := chunkBounds(len(sendBuf), chunk, c)
				if err := e.SendCtx(stepCtx, right, sendBuf[clo:chi], tos, tag); err != nil {
					sendErr <- fmt.Errorf("ring: node %d send block %d chunk %d to %d: %w", id, sendBlk, c, right, err)
					return
				}
			}
			sendErr <- nil
		}()

		// Each chunk is summed or stored where it lands; accumulate the
		// receive time and record one span per step rather than flooding
		// the tracer with per-chunk events.
		var recvDur time.Duration
		rsp := opt.Obs.Span(id, opt.ObsIter, obs.PhaseRecv)
		nc := numChunks(len(recvBuf), chunk)
		for c := 0; c < nc; c++ {
			var t0 time.Time
			if obsOn {
				t0 = time.Now()
			}
			clo, chi := chunkBounds(len(recvBuf), chunk, c)
			err := e.RecvIntoCtx(stepCtx, left, tag, recvBuf[clo:chi], reduce)
			if obsOn {
				recvDur += time.Since(t0)
			}
			if err != nil {
				if cancel != nil {
					cancel() // unblock the sender before returning
				}
				return fmt.Errorf("ring: node %d recv block %d chunk %d from %d: %w", id, recvBlk, c, left, err)
			}
		}
		rsp.EndWith(recvDur)
		if obsOn {
			recvWaitNs.Add(recvDur.Nanoseconds())
			linkWaitNs.Add(recvDur.Nanoseconds())
		}
		return <-sendErr
	}

	// P1: aggregation of gradients (reduce-scatter). Block indices are
	// functions of the node's rank within the member ring, not its fabric
	// id, so a reconfigured (shrunken) ring repartitions cleanly.
	for s := 1; s <= n-1; s++ {
		sendBlk := ((rank-s+1)%n + n) % n
		recvBlk := ((rank-s)%n + n) % n
		if err := step(ctx, sendBlk, recvBlk, opt.TagOffset+tagReduceScatter+s, true); err != nil {
			return err
		}
	}

	if finalize != nil {
		// The fully aggregated block this node owns after P1.
		lo, hi := BlockBounds(len(grad), n, (rank+1)%n)
		finalize(grad[lo:hi])
	}

	// P2: propagation of the aggregated gradients (all-gather).
	for s := 0; s <= n-2; s++ {
		sendBlk := ((rank+1-s)%n + n) % n
		recvBlk := ((rank-s)%n + n) % n
		if err := step(ctx, sendBlk, recvBlk, opt.TagOffset+tagAllGather+s, false); err != nil {
			return err
		}
	}
	return nil
}

// Aggregator tags for the worker-aggregator exchange.
const (
	tagGradUp    = 3000
	tagWeightsDn = 3001
)

// WorkerExchangeCtx is one worker's side of the conventional
// worker-aggregator iteration (paper Fig. 2): send the local gradient up to
// the aggregator, receive the updated weights back. gradTos controls
// compression of the gradient leg (the only compressible leg in this
// topology — the returned weights cannot tolerate loss, per the paper's
// Fig. 4). The received vector — one weight per gradient element — is
// returned. ctx bounds the whole exchange: the down leg cannot start before
// the hub has heard from every worker, so the two legs share one deadline.
func WorkerExchangeCtx(ctx context.Context, e comm.CtxPeer, aggregator int, grad []float32, gradTos uint8) ([]float32, error) {
	var leg Options // no per-leg deadline: ctx is the exchange's
	if err := leg.SendStep(ctx, e, aggregator, grad, gradTos, tagGradUp); err != nil {
		return nil, fmt.Errorf("ring: worker gradient up: %w", err)
	}
	w, err := leg.RecvStep(ctx, e, aggregator, tagWeightsDn, len(grad))
	if err != nil {
		return nil, fmt.Errorf("ring: worker weights down: %w", err)
	}
	return w, nil
}

// StepContext derives the per-operation deadline context from o: with a
// StepTimeout each individual send/recv is bounded, so a single wedged
// peer surfaces as a timeout error naming the hop instead of blocking the
// collective until the caller cancels.
func (o Options) StepContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.StepTimeout > 0 {
		return context.WithTimeout(ctx, o.StepTimeout)
	}
	return ctx, func() {}
}

// SendStep is the one deadline-bounded point-to-point send every
// non-ring leg in the repo is made of (the hub step below, hierarchy's
// group broadcast, mpi's binomial trees and switch ports): a SendCtx under
// o.StepContext whose error names the hop. tag is used as given —
// o.TagOffset bands only the ring's own steps.
func (o Options) SendStep(ctx context.Context, e comm.CtxPeer, dst int, vec []float32, tos uint8, tag int) error {
	sctx, cancel := o.StepContext(ctx)
	defer cancel()
	if err := e.SendCtx(sctx, dst, vec, tos, tag); err != nil {
		return fmt.Errorf("ring: node %d send to %d: %w", e.ID(), dst, err)
	}
	return nil
}

// AnyLen is the RecvStep length for a leg whose payload size the receiver
// cannot know in advance.
const AnyLen = -1

// RecvStep is SendStep's counterpart: a RecvCtx under o.StepContext that
// also rejects a payload of any length but want, so no caller indexes or
// copies a peer's vector on trust.
func (o Options) RecvStep(ctx context.Context, e comm.CtxPeer, src, tag, want int) ([]float32, error) {
	sctx, cancel := o.StepContext(ctx)
	defer cancel()
	rb, err := e.RecvCtx(sctx, src, tag)
	if err != nil {
		return nil, fmt.Errorf("ring: node %d recv from %d: %w", e.ID(), src, err)
	}
	if want != AnyLen && len(rb) != want {
		return nil, fmt.Errorf("ring: node %d tag %d: got %d floats from %d, want %d", e.ID(), tag, len(rb), src, want)
	}
	return rb, nil
}

// RecvIntoStep is RecvStep's form for a leg whose receiver holds the
// vector the payload goes into: a RecvIntoCtx under o.StepContext, which
// writes the payload into dst or adds it there and rejects one of any
// length but len(dst).
func (o Options) RecvIntoStep(ctx context.Context, e comm.CtxPeer, src, tag int, dst []float32, add bool) error {
	sctx, cancel := o.StepContext(ctx)
	defer cancel()
	if err := e.RecvIntoCtx(sctx, src, tag, dst, add); err != nil {
		return fmt.Errorf("ring: node %d recv from %d: %w", e.ID(), src, err)
	}
	return nil
}

// AggregateStepCtx is the hub's side of a gather–sum–return step: gather
// one gradLen-float vector from each of workers (node ids), sum them in
// that order, let update produce the vector to return, and send it to
// every worker. The worker-aggregator baseline's update is the optimizer
// step (the result is the new weights); hierarchy's global aggregator
// passes the identity. With opt.StepTimeout set, every per-worker gather
// and return leg is individually deadline-bounded: one wedged worker fails
// the step with an error identifying it rather than hanging the hub.
func AggregateStepCtx(ctx context.Context, e comm.CtxPeer, workers []int, gradLen int, update func(sum []float32) []float32, opt Options) error {
	sum := make([]float32, gradLen)
	for _, w := range workers {
		if err := opt.RecvIntoStep(ctx, e, w, tagGradUp, sum, true); err != nil {
			return fmt.Errorf("ring: aggregator gather: %w", err)
		}
	}
	weights := update(sum)
	for _, w := range workers {
		// Weights are never ToS-tagged: loss is intolerable on this leg.
		if err := opt.SendStep(ctx, e, w, weights, 0, tagWeightsDn); err != nil {
			return fmt.Errorf("ring: aggregator broadcast: %w", err)
		}
	}
	return nil
}
