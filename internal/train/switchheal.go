// Self-healing switch training: the SwitchReduce runner survives the
// death of its in-network reduction unit. Every worker grades its
// exchange errors with the mpi switch health monitor; once a failure is
// confirmed (a hard transport self-report, or a stall after the full
// step deadline), a one-shot gate cancels the switch data path on every
// worker at once, the workers agree on the newest iteration everyone can
// still replay (two-deep snapshots; the switch protocol bounds survivor
// skew to one iteration), roll back, and finish the run on the ring
// collective — bit-exact, because the switch combine replicates the
// ring's per-block accumulation order, so the replayed ring iterations
// land on identical float32 weights.
//
// Only the switch is expendable: a worker casualty still fails the run
// closed (that is the elastic runner's job, not this one's).

package train

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/elastic"
	"inceptionn/internal/fault"
	"inceptionn/internal/mpi"
	"inceptionn/internal/obs"
)

// fallbackTagOffset re-bands the fallback ring's traffic above every tag
// the switch collective ever used (reusing the elastic layer's epoch
// stride), so a frame from the abandoned switch exchange can never alias
// a ring step even on a transport that mixes streams.
var fallbackTagOffset = elastic.TagBase(1)

// fallbackGate is the one-shot switch-failure consensus object shared by
// every worker of a self-healing run. Tripping it (once, ever) cancels
// the switch data path, records the collective_fallbacks counter and the
// fallback span (node = the dead switch, duration = detection latency),
// and opens the replay rendezvous where all workers agree on the newest
// iteration every one of them retains. It also holds the completion
// drain: a worker that finishes all iterations on the switch path parks
// until every sibling finished too, because a switch death during a
// straggler's final exchange forces even finished workers back one
// iteration.
type fallbackGate struct {
	workers int
	swID    int
	rec     *obs.Recorder

	// swCtx scopes every switch-path operation (worker exchanges and the
	// serve loop); tripping the gate cancels it, aborting the abandoned
	// protocol on all parties at once.
	swCtx    context.Context
	swCancel context.CancelFunc

	// mons grade each worker's exchange errors (soft strikes are per
	// worker); indexed by worker id, each used by that worker alone.
	mons []mpi.SwitchMonitor

	mu        sync.Mutex
	tripped   bool
	class     mpi.SwitchFaultClass
	cause     string
	detect    time.Duration
	trippedCh chan struct{}

	contrib    map[int]int // worker id -> iteration at fallback entry
	replay     int
	resolvedCh chan struct{}

	done    int // workers parked at the completion drain
	allDone chan struct{}
}

func newFallbackGate(runCtx context.Context, workers, swID int, rec *obs.Recorder) *fallbackGate {
	g := &fallbackGate{
		workers:    workers,
		swID:       swID,
		rec:        rec,
		mons:       make([]mpi.SwitchMonitor, workers),
		trippedCh:  make(chan struct{}),
		contrib:    make(map[int]int, workers),
		resolvedCh: make(chan struct{}),
		allDone:    make(chan struct{}),
	}
	g.swCtx, g.swCancel = context.WithCancel(runCtx)
	return g
}

func (g *fallbackGate) isTripped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tripped
}

// trip confirms the switch failure. iter is the iteration the detecting
// party was on (negative for out-of-band evidence like a fabric anomaly
// watcher), detect the latency from fault onset to confirmation. Only the
// first call wins; calls after every worker already finished are ignored
// (the run is complete — a teardown error cannot fail it retroactively).
func (g *fallbackGate) trip(iter int, class mpi.SwitchFaultClass, cause string, detect time.Duration) {
	g.mu.Lock()
	if g.tripped || g.done == g.workers {
		g.mu.Unlock()
		return
	}
	g.tripped = true
	g.class, g.cause, g.detect = class, cause, detect
	close(g.trippedCh)
	g.mu.Unlock()
	g.swCancel()
	g.rec.Counter("collective_fallbacks").Add(1)
	// The fallback span charges the iteration to the dead switch itself:
	// its duration is the detection window, during which every survivor's
	// recv waits are evidence of the failure, not of a slow neighbor —
	// critical-path attribution treats it as an override.
	g.rec.RecordSpan(g.swID, iter, obs.PhaseFallback, time.Now().Add(-detect), detect)
}

// verdict returns the trip facts (valid once tripped).
func (g *fallbackGate) verdict() (class mpi.SwitchFaultClass, cause string, detect time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.class, g.cause, g.detect
}

// absorb grades a worker's failed switch exchange (started detect ago) and
// reports whether the fallback absorbs it: true means the gate is tripped —
// by this error or a sibling's — and the caller should re-enter its loop
// to join the replay; false means the error stands as the run's.
func (g *fallbackGate) absorb(id, iter int, err error, detect time.Duration) bool {
	if errors.Is(err, fault.ErrCrashed) || errors.Is(err, fault.ErrClosed) {
		// This worker is the casualty, not the switch: fail closed. Falling
		// back cannot save a run missing a gradient shard.
		return false
	}
	if confirmed, class, cause := g.mons[id].Observe(err); confirmed && !g.isTripped() {
		g.trip(iter, class, cause, detect)
	}
	// Unconfirmed and nobody tripped: an unrelated cancellation (a sibling's
	// hard fault) — the error stands.
	return g.isTripped()
}

// tripOnAnomaly handles an out-of-band fabric anomaly: while the switch
// path is live a hard one is evidence against it and trips the gate.
// Reports whether it did.
func (g *fallbackGate) tripOnAnomaly(err error) bool {
	class, cause := mpi.GradeSwitchFault(err)
	if g.isTripped() || !class.Hard() {
		return false
	}
	g.trip(-1, class, "fabric anomaly: "+cause, 0)
	return true
}

// resolve is the replay rendezvous: each worker contributes the
// iteration it reached; once all have, the replay point is the minimum —
// the newest iteration every worker can still restore. Blocks until the
// rendezvous completes or ctx dies (a worker that failed closed never
// contributes, and its run cancellation unblocks everyone with an error).
func (g *fallbackGate) resolve(ctx context.Context, id, iter int) (int, error) {
	g.mu.Lock()
	if _, ok := g.contrib[id]; !ok {
		g.contrib[id] = iter
		if len(g.contrib) == g.workers {
			g.replay = iter
			for _, it := range g.contrib {
				if it < g.replay {
					g.replay = it
				}
			}
			close(g.resolvedCh)
		}
	}
	g.mu.Unlock()
	select {
	case <-g.resolvedCh:
		return g.replay, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// finish is the completion drain for a worker that ran out of iterations
// on the switch path. It returns false when the worker may really exit
// (every sibling finished, or the run died) and true when the gate
// tripped and the worker must resurrect to join the replay.
func (g *fallbackGate) finish(ctx context.Context) bool {
	g.mu.Lock()
	if g.tripped {
		g.mu.Unlock()
		return true
	}
	g.done++
	if g.done == g.workers {
		close(g.allDone)
		g.mu.Unlock()
		return false
	}
	g.mu.Unlock()
	select {
	case <-g.allDone:
		return false
	case <-g.trippedCh:
		return true
	case <-ctx.Done():
		return false
	}
}

// enter moves one worker onto the fallback path: rendezvous on the replay
// point, then restore the snapshot when this worker has anything in flight
// or ahead of the replay point. Returns the iteration to resume at and
// whether its exchange-ready gradient is already loaded.
func (g *fallbackGate) enter(ctx context.Context, w *worker, iter int, pending bool) (int, bool, error) {
	replay, err := g.resolve(ctx, w.id, iter)
	if err != nil {
		return 0, false, fmt.Errorf("train: worker %d fallback rendezvous: %w", w.id, err)
	}
	if replay < iter || pending {
		rsp := g.rec.Span(w.id, replay, obs.PhaseReplay)
		rerr := w.restoreSnapshot(replay)
		rsp.End()
		if rerr != nil {
			return 0, false, rerr
		}
		return replay, true, nil
	}
	return iter, false, nil
}

// switchCollective is in-network aggregation: node o.Workers is the
// programmable switch's reduction unit (mpi.SwitchServeCtx); every worker
// streams its gradient through it chunk by chunk and receives the combined
// gradient back. The combine is bit-exact with the ring collective, so a
// SwitchReduce run lands on the same weights as a Ring run (verified by
// tests). Under the SwitchFallback recovery the run survives the switch's
// death by finishing on the ring.
func switchCollective(o Options) collective {
	swOpt := mpi.SwitchOptions{ChunkFloats: o.SwitchChunk}
	world := func(p comm.CtxPeer) *mpi.Comm {
		c := mpi.WorldPeer(p)
		c.CollectiveCommComp(o.Compress)
		c.SetStepTimeout(o.StepTimeout)
		return c
	}
	c := collective{
		bind: func(r *fixedRun, p comm.CtxPeer) exchangeFn {
			c := world(p)
			return func(ctx context.Context, w *worker, iter int) ([]float32, error) {
				xsp := o.Obs.Span(w.id, iter, obs.PhaseSend)
				defer xsp.End()
				return nil, c.AllReduceSwitchCtx(ctx, w.net.Grads(), o.Workers, swOpt)
			}
		},
		serve: func(r *fixedRun, p comm.CtxPeer, gradLen int) error {
			c := world(p)
			c.SetFinalize(r.plane.finalize)
			return serveSwitch(r, c, gradLen, swOpt)
		},
	}
	if o.Recovery == SwitchFallback {
		ring := ringCollective(fallbackTagOffset)
		c.fallback = &ring
	}
	return c
}

// serveSwitch is the switch goroutine: iters rounds of the reduction unit.
// With fallback armed it self-reports hard evidence (its own transport or
// protocol giving up) by tripping the gate with zero detection latency; a
// serve-side stall is evidence against a *port*, not the switch, so it is
// only surfaced as an anomaly for the post-run merge.
func serveSwitch(r *fixedRun, c *mpi.Comm, gradLen int, swOpt mpi.SwitchOptions) error {
	ctx := r.ctx
	if r.gate != nil {
		ctx = r.gate.swCtx
	}
	for k := 0; k < r.iters; k++ {
		err := c.SwitchServeCtx(ctx, gradLen, swOpt)
		if err == nil {
			continue
		}
		class, cause := mpi.GradeSwitchFault(err)
		err = fmt.Errorf("train: switch iter %d: %w", k, err)
		if r.gate == nil {
			return err
		}
		switch {
		case r.gate.isTripped() || class == mpi.SwitchFaultUnrelated:
			// Expected teardown: the fallback is engaged, or the run was
			// cancelled by a worker's hard fault.
		case class.Hard():
			r.gate.trip(k, class, "switch self-report: "+cause, 0)
		default:
			// Stall: a port went quiet. Condemning the switch here would
			// trigger a replay into a ring missing a member; leave the
			// verdict to the workers and surface the evidence.
			return err
		}
		return nil
	}
	return nil
}
