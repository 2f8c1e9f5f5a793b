package train

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/hierarchy"
	"inceptionn/internal/opt"
	"inceptionn/internal/ring"
)

// exchangeFn is one worker's side of one iteration's gradient exchange,
// reduced in place: on success w.net.Grads() holds the sum over all workers
// — or, when an aggregator node already applied the update, the returned
// weights are the new model.
type exchangeFn func(ctx context.Context, w *worker, iter int) (weights []float32, err error)

// collective is an aggregation strategy under the unchanged training loop
// (Algorithm 1 varies nothing else): ring, worker-aggregator, the two
// hierarchies and the in-network switch are five values of this type.
type collective struct {
	// bind returns the worker-side exchange over that worker's peer.
	bind func(r *fixedRun, p comm.CtxPeer) exchangeFn
	// serve, when non-nil, is the strategy's service goroutine — the WA
	// aggregator, the tree root, the switch's reduction unit — run on the
	// extra node o.Workers for the whole run.
	serve func(r *fixedRun, p comm.CtxPeer, gradLen int) error
	// fallback, when non-nil, arms the recovery policy: the service node is
	// expendable, and on its confirmed failure the workers roll back at most
	// one iteration and finish the run on this collective (see fallbackGate).
	fallback *collective
}

// nodes returns the plane size the collective needs for the given workers.
func (c collective) nodes(workers int) int {
	if c.serve != nil {
		return workers + 1
	}
	return workers
}

// ringCollective is the paper's gradient-centric aggregator-free exchange;
// tagOffset re-bands its traffic (0 for a plain ring run).
func ringCollective(tagOffset int) collective {
	return collective{
		bind: func(r *fixedRun, p comm.CtxPeer) exchangeFn {
			// Explicit members: as a fallback the ring runs on a plane that
			// also holds the abandoned service node.
			members := r.workerIDs()
			return func(ctx context.Context, w *worker, iter int) ([]float32, error) {
				ropt := r.o.ringOptions(iter)
				ropt.TagOffset = tagOffset
				return nil, ring.AllReduceGroupCtx(ctx, p, members, w.net.Grads(), r.o.gradTos(), r.plane.finalize, ropt)
			}
		},
	}
}

// waCollective is the conventional worker-aggregator baseline (paper Fig.
// 2): node o.Workers holds the master weights and optimizer state, sums
// the workers' gradients, updates, and broadcasts weights. Only the
// gradient leg is compressible.
var waCollective = collective{
	bind: func(r *fixedRun, p comm.CtxPeer) exchangeFn {
		return func(ctx context.Context, w *worker, iter int) ([]float32, error) {
			return ring.WorkerExchangeCtx(ctx, p, r.o.Workers, w.net.Grads(), r.o.gradTos())
		}
	},
	serve: func(r *fixedRun, p comm.CtxPeer, gradLen int) error {
		o := r.o
		net := r.build(rand.New(rand.NewSource(o.Seed)))
		sgd := opt.NewSGD(o.Schedule.Base, o.Momentum, o.WeightDecay)
		workers := r.workerIDs()
		for iter := 0; iter < r.iters; iter++ {
			err := ring.AggregateStepCtx(r.ctx, p, workers, gradLen, func(sum []float32) []float32 {
				inv := float32(1) / float32(o.Workers)
				grad := net.Grads()
				for i, v := range sum {
					grad[i] = v * inv
				}
				sgd.LR = o.Schedule.At(iter)
				sgd.Step(net.Params())
				if o.WeightTransform != nil {
					o.WeightTransform(net.Weights())
				}
				// Every send copies: the master copy itself goes out.
				return net.Weights()
			}, o.ringOptions(iter))
			if err != nil {
				return fmt.Errorf("train: aggregator iter %d: %w", iter, err)
			}
		}
		return nil
	},
}

// hierarchyCollective is the multi-level organization of the paper's Fig.
// 1b (ring groups under a global aggregator) or Fig. 1c (rings at every
// level), via internal/hierarchy.
func hierarchyCollective(o Options) (collective, error) {
	topo := hierarchy.Topology{Workers: o.Workers, GroupSize: o.GroupSize, Mode: hierarchy.ModeRingOfLeaders}
	if o.Algo == HierarchicalTree {
		topo.Mode = hierarchy.ModeAggregatorTree
	}
	if err := topo.Validate(); err != nil {
		return collective{}, err
	}
	c := collective{
		bind: func(r *fixedRun, p comm.CtxPeer) exchangeFn {
			return func(ctx context.Context, w *worker, iter int) ([]float32, error) {
				return nil, hierarchy.AllReduceCtx(ctx, topo, p, w.net.Grads(), r.o.gradTos(), r.plane.finalize, r.o.ringOptions(iter))
			}
		},
	}
	if topo.Mode == hierarchy.ModeAggregatorTree {
		c.serve = func(r *fixedRun, p comm.CtxPeer, gradLen int) error {
			for iter := 0; iter < r.iters; iter++ {
				if err := hierarchy.RunAggregatorCtx(r.ctx, topo, p, gradLen, r.o.ringOptions(iter)); err != nil {
					return fmt.Errorf("train: aggregator iter %d: %w", iter, err)
				}
			}
			return nil
		}
	}
	return c, nil
}

// collectiveFor resolves o.Algo to its collective value.
func collectiveFor(o Options) (collective, error) {
	switch o.Algo {
	case Ring:
		return ringCollective(0), nil
	case WorkerAggregator:
		return waCollective, nil
	case HierarchicalTree, HierarchicalRing:
		return hierarchyCollective(o)
	case SwitchReduce:
		return switchCollective(o), nil
	}
	return collective{}, fmt.Errorf("train: unknown algorithm %d", o.Algo)
}

// serviceJoinTimeout bounds how long a run waits for its service goroutine
// after every worker has exited. A serve still blocked past it is a leak,
// reported as the run's error instead of stranding a goroutine (and, under
// -race in tests, failing the build's leak checks).
const serviceJoinTimeout = 10 * time.Second

// fixedRun is one fixed-membership training run: o.Workers workers for the
// whole run, one collective (plus, when armed, the one it falls back to).
type fixedRun struct {
	*session
	coll collective
	gate *fallbackGate // nil unless coll.fallback armed the recovery policy

	errs []error // per worker id, then the service's, then the fabric's

	// gradLen is published by the first worker to finish building its
	// replica; the service goroutine waits for it instead of building a
	// network of its own just to measure one.
	lenOnce  sync.Once
	lenReady chan struct{}
	gradLen  int

	replicas [][]float32 // every worker's final weights, when asked for
	final    Result      // the leader's final accuracy, loss and weights
}

func (r *fixedRun) workerIDs() []int {
	ids := make([]int, r.o.Workers)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// record keeps slot's first error (a worker id, or one of the two trailing
// slots) for the post-run merge.
func (r *fixedRun) record(slot int, err error) {
	r.mu.Lock()
	if r.errs[slot] == nil {
		r.errs[slot] = err
	}
	r.mu.Unlock()
}

// fail records slot's error and unblocks every other party.
func (r *fixedRun) fail(slot int, err error) {
	r.record(slot, err)
	r.cancel()
}

// runFixed is the one fixed-membership training loop: every worker runs
// computeStep → c's exchange → commitStep for iters iterations over plane
// (which it closes), beside c's service goroutine if it has one. With
// replicas non-nil, every worker's final weight vector is stored there.
func runFixed(plane *dataPlane, c collective, build Builder, trainDS, testDS data.Dataset, iters int, o Options, replicas [][]float32) (Result, error) {
	defer plane.Close()
	r := &fixedRun{
		session:  newSession(plane, build, trainDS, testDS, iters, o),
		coll:     c,
		errs:     make([]error, o.Workers+2),
		lenReady: make(chan struct{}),
		replicas: replicas,
	}
	defer r.cancel()
	serveSlot, fabricSlot := o.Workers, o.Workers+1
	if c.fallback != nil {
		r.gate = newFallbackGate(r.ctx, o.Workers, o.Workers, o.Obs)
	}

	// Before the fallback engages, all traffic is the primary collective's,
	// so a hard anomaly is direct evidence against its service node and
	// trips the gate instead of failing the run; after the fallback — or
	// without one armed — an anomaly aborts the run.
	plane.watch(r.ctx, func(_ int, err error) bool {
		if r.gate == nil || !r.gate.tripOnAnomaly(err) {
			r.fail(fabricSlot, err)
		}
		return false
	})

	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if c.serve == nil {
			return
		}
		tp := plane.peer(o.Workers)
		select {
		case <-r.lenReady:
		case <-r.ctx.Done():
			return
		}
		switch err := c.serve(r, tp, r.gradLen); {
		case err == nil:
		case r.gate != nil:
			// An expendable service's complaint is evidence, not a verdict:
			// cancelling here would abort the very exchanges whose step
			// deadline is about to trip the gate and heal the run.
			r.record(serveSlot, err)
		default:
			r.fail(serveSlot, err)
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < o.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := r.runWorker(id); err != nil {
				r.fail(id, err)
			}
		}(id)
	}
	wg.Wait()

	// Reap the service goroutine with a bounded join: cancel its contexts,
	// then wait.
	r.cancel()
	select {
	case <-serveDone:
	case <-time.After(serviceJoinTimeout):
		return Result{}, fmt.Errorf("train: service goroutine leaked: still serving %s after every worker exited", serviceJoinTimeout)
	}

	// The causal failure: a worker's own fault first; the service's or the
	// fabric's anomaly when the workers merely observed the cancellation it
	// triggered.
	tripped := r.gate != nil && r.gate.isTripped()
	r.mu.Lock()
	if tripped {
		// The service's complaints are the expected symptoms of the death
		// the fallback already healed.
		r.errs[serveSlot] = nil
	}
	err := firstError(r.errs)
	r.mu.Unlock()
	if err != nil {
		return Result{}, err
	}

	res := r.result()
	res.FinalAcc, res.FinalLoss, res.FinalWeights = r.final.FinalAcc, r.final.FinalLoss, r.final.FinalWeights
	if tripped {
		class, cause, detect := r.gate.verdict()
		res.Fallbacks = 1
		res.FallbackDetectSeconds = detect.Seconds()
		res.FallbackCause = fmt.Sprintf("%s: %s", class, cause)
	}
	return res, nil
}

// runWorker is one worker's whole training loop: the run's collective
// until its recovery gate trips (if armed, if ever), then the fallback
// collective to the end. The outer loop exists for the completion drain —
// a worker that finished on the primary path can be resurrected into the
// replay.
func (r *fixedRun) runWorker(id int) error {
	o := r.o
	tp := r.plane.peer(id)
	w := newWorker(id, r.build, r.trainDS, o, false)
	r.lenOnce.Do(func() {
		r.gradLen = w.net.NumParams()
		close(r.lenReady)
	})
	exchange, exCtx := r.coll.bind(r, tp), r.ctx
	if r.gate != nil {
		w.armSnapshots()
		exCtx = r.gate.swCtx
	}
	degraded := false // on the fallback collective
	// pending: iter's exchange-ready gradient is loaded and uncommitted.
	iter, pending := 0, false
	enterFallback := func() (err error) {
		degraded = true
		exchange, exCtx = r.coll.fallback.bind(r, tp), r.ctx
		iter, pending, err = r.gate.enter(r.ctx, w, iter, pending)
		return err
	}

	for {
		for iter < r.iters {
			if r.gate != nil && !degraded && r.gate.isTripped() {
				// A sibling (or the service itself) confirmed the failure
				// while this worker was between exchanges.
				if err := enterFallback(); err != nil {
					return err
				}
				continue
			}
			passStart := time.Now()
			if !pending && w.snapFor(iter) != nil {
				// A replay rewound this worker past an iteration it had
				// already computed: reuse the retained gradient so Next()
				// is never called twice for one iteration and the rand
				// loader stream stays exactly the fault-free one.
				if err := w.restoreSnapshot(iter); err != nil {
					return err
				}
				pending = true
			}
			if !pending {
				r.computeStep(w, iter, id == 0)
				pending = true
			}

			tx := time.Now()
			weights, err := exchange(exCtx, w, iter)
			r.tallies[id].comm += time.Since(tx).Nanoseconds()
			if err != nil {
				if r.gate != nil && !degraded && r.gate.absorb(id, iter, err, time.Since(tx)) {
					continue // loop top engages the fallback
				}
				return fmt.Errorf("train: worker %d iter %d: %w", id, iter, err)
			}
			r.commitStep(w, iter, passStart, weights, o.Workers, id == 0)
			pending = false
			iter++
		}

		if degraded || r.gate == nil || !r.gate.finish(r.ctx) {
			break // fallback completion is final; so is an unarmed run
		}
		// Resurrected: the service died during a straggler's exchange after
		// this worker already finished — rejoin at the agreed replay point.
		if err := enterFallback(); err != nil {
			return err
		}
	}

	// The replica is finished: its weight view is handed over, not copied.
	if r.replicas != nil {
		r.replicas[id] = w.net.Weights()
	}
	if id == 0 {
		r.final.FinalWeights = w.net.Weights()
		if r.testDS != nil {
			r.final.FinalAcc, r.final.FinalLoss = evaluate(w.net, r.testDS, o.EvalSamples)
		}
	}
	return nil
}
