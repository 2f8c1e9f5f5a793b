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
	"inceptionn/internal/mpi"
	"inceptionn/internal/obs"
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
}

// nodes returns the plane size the collective needs for the given workers.
func (c collective) nodes(workers int) int {
	if c.serve != nil {
		return workers + 1
	}
	return workers
}

// ringCollective is the paper's gradient-centric aggregator-free exchange.
var ringCollective = collective{
	bind: func(r *fixedRun, p comm.CtxPeer) exchangeFn {
		return func(ctx context.Context, w *worker, iter int) ([]float32, error) {
			return nil, ring.AllReduceCtx(ctx, p, w.net.Grads(), r.o.gradTos(), r.plane.finalize, r.o.ringOptions(iter))
		}
	},
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

// switchCollective is in-network aggregation: node o.Workers is the
// programmable switch's reduction unit (mpi.SwitchServeCtx); every worker
// streams its gradient through it chunk by chunk and receives the combined
// gradient back. The combine is bit-exact with the ring collective, so a
// SwitchReduce run lands on the same weights as a Ring run (verified by
// tests).
func switchCollective(o Options) collective {
	swOpt := mpi.SwitchOptions{ChunkFloats: o.SwitchChunk}
	world := func(p comm.CtxPeer) *mpi.Comm {
		c := mpi.WorldPeer(p)
		c.CollectiveCommComp(o.Compress)
		c.SetStepTimeout(o.StepTimeout)
		return c
	}
	return collective{
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
			for iter := 0; iter < r.iters; iter++ {
				if err := c.SwitchServeCtx(r.ctx, gradLen, swOpt); err != nil {
					return fmt.Errorf("train: switch iter %d: %w", iter, err)
				}
			}
			return nil
		},
	}
}

// collectiveFor resolves o.Algo to its collective value.
func collectiveFor(o Options) (collective, error) {
	switch o.Algo {
	case Ring:
		return ringCollective, nil
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

// fixedRun is one fixed-membership training run: o.Workers workers and one
// collective over one data plane for the whole run. It holds what the
// workers share: the inputs, the run-wide cancellation scope and the
// accumulators behind Result.
type fixedRun struct {
	o       Options
	iters   int
	build   Builder
	trainDS data.Dataset
	testDS  data.Dataset // nil skips every evaluation
	plane   *dataPlane
	coll    collective

	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	errs []error // per worker id, then the service's, then the fabric's

	// gradLen is published by the first worker to finish building its
	// replica; the service goroutine waits for it instead of building a
	// network of its own just to measure one.
	lenOnce  sync.Once
	lenReady chan struct{}
	gradLen  int

	tallies   []tally        // indexed by worker id
	iterHist  *obs.Histogram // train_iter_seconds (nil-safe)
	lossGauge *obs.Gauge     // train_loss (nil-safe)
	evals     []EvalPoint    // the leader's alone, in iteration order

	replicas [][]float32 // every worker's final weights, when asked for
	final    Result      // the leader's final accuracy, loss and weights
}

// tally is one worker's wall-clock attribution, in nanoseconds. Each
// worker goroutine owns its slot; the run reads it after joining them.
type tally struct{ compute, comm int64 }

func newFixedRun(plane *dataPlane, c collective, build Builder, trainDS, testDS data.Dataset, iters int, o Options, replicas [][]float32) *fixedRun {
	r := &fixedRun{
		o: o, iters: iters, build: build, trainDS: trainDS, testDS: testDS, plane: plane, coll: c,
		errs:      make([]error, o.Workers+2),
		lenReady:  make(chan struct{}),
		tallies:   make([]tally, o.Workers),
		iterHist:  o.Obs.Histogram("train_iter_seconds"),
		lossGauge: o.Obs.Gauge("train_loss"),
		replicas:  replicas,
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

func (r *fixedRun) workerIDs() []int {
	ids := make([]int, r.o.Workers)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// fail keeps slot's first error (a worker id, or one of the two trailing
// slots) for the post-run merge and unblocks every other party.
func (r *fixedRun) fail(slot int, err error) {
	r.mu.Lock()
	if r.errs[slot] == nil {
		r.errs[slot] = err
	}
	r.mu.Unlock()
	r.cancel()
}

// runFixed is the one fixed-membership training loop: every worker runs
// computeStep → c's exchange → commitStep for iters iterations over plane
// (which it closes), beside c's service goroutine if it has one. With
// replicas non-nil, every worker's final weight vector is stored there.
func runFixed(plane *dataPlane, c collective, build Builder, trainDS, testDS data.Dataset, iters int, o Options, replicas [][]float32) (Result, error) {
	defer plane.Close()
	r := newFixedRun(plane, c, build, trainDS, testDS, iters, o, replicas)
	defer r.cancel()
	serveSlot, fabricSlot := o.Workers, o.Workers+1

	// A fabric anomaly (a link that gave up) aborts the run.
	plane.watch(r.ctx, func(_ int, err error) bool {
		r.fail(fabricSlot, err)
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
		if err := c.serve(r, tp, r.gradLen); err != nil {
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
	r.mu.Lock()
	err := firstError(r.errs)
	r.mu.Unlock()
	if err != nil {
		return Result{}, err
	}

	res := r.result()
	res.FinalAcc, res.FinalLoss, res.FinalWeights = r.final.FinalAcc, r.final.FinalLoss, r.final.FinalWeights
	return res, nil
}

// runWorker is one worker's whole training loop: computeStep → the
// collective's exchange → commitStep, iters times.
func (r *fixedRun) runWorker(id int) error {
	o := r.o
	w := newWorker(id, r.build, r.trainDS, o)
	r.lenOnce.Do(func() {
		r.gradLen = w.net.NumParams()
		close(r.lenReady)
	})
	exchange := r.coll.bind(r, r.plane.peer(id))
	for iter := 0; iter < r.iters; iter++ {
		passStart := time.Now()
		r.computeStep(w, iter, id == 0)
		tx := time.Now()
		weights, err := exchange(r.ctx, w, iter)
		r.tallies[id].comm += time.Since(tx).Nanoseconds()
		if err != nil {
			return fmt.Errorf("train: worker %d iter %d: %w", id, iter, err)
		}
		r.commitStep(w, iter, passStart, weights, id == 0)
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

// computeStep is the first half of Algorithm 1's iteration on worker w:
// the local gradient over the next minibatch, left in w.net.Grads() ready
// to exchange (after the optional transform and error feedback), and
// observed by GradHook on the leader — a view, valid until the exchange.
func (r *fixedRun) computeStep(w *worker, iter int, leader bool) {
	o := r.o
	t0 := time.Now()
	csp := o.Obs.Span(w.id, iter, obs.PhaseCompute)
	w.loss = w.forwardBackward()
	o.straggle(w.id)
	if o.LocalGradTransform != nil {
		o.LocalGradTransform(w.net.Grads())
	}
	w.applyErrorFeedback(o)
	csp.End()
	if leader && o.GradHook != nil {
		o.GradHook(iter, w.net.Grads())
	}
	r.tallies[w.id].compute += time.Since(t0).Nanoseconds()
}

// commitStep is the second half, after the exchange delivered: apply the
// update and, on the leader, report the finished iteration (whose pass
// began at passStart) to the iteration histogram, loss gauge and
// evaluation trail. The exchange left either the gradient sum over every
// worker in w.net.Grads(), or — when an aggregator already stepped the
// master copy — the new weights.
func (r *fixedRun) commitStep(w *worker, iter int, passStart time.Time, weights []float32, leader bool) {
	o := r.o
	ta := time.Now()
	if weights != nil {
		copy(w.net.Weights(), weights)
	} else {
		w.applyAveraged(iter, o)
	}
	r.tallies[w.id].compute += time.Since(ta).Nanoseconds()
	if !leader {
		return
	}
	r.iterHist.Observe(time.Since(passStart))
	r.lossGauge.Set(w.loss)
	if r.testDS != nil && o.EvalEvery > 0 && ((iter+1)%o.EvalEvery == 0 || iter == r.iters-1) {
		acc, loss := evaluate(w.net, r.testDS, o.EvalSamples)
		r.evals = append(r.evals, EvalPoint{Iter: iter + 1, Accuracy: acc, Loss: loss})
	}
}

// result assembles the evaluation trail, the compute/communication split
// summed over workers, and the plane's traffic totals. It runs after every
// worker has exited.
func (r *fixedRun) result() Result {
	res := Result{Evals: r.evals}
	var compute, comm int64
	for _, t := range r.tallies {
		compute += t.compute
		comm += t.comm
	}
	res.ComputeSeconds = time.Duration(compute).Seconds()
	res.CommSeconds = time.Duration(comm).Seconds()
	var wait time.Duration
	res.RawBytes, res.WireBytes, wait = r.plane.traffic()
	res.StragglerWaitSeconds = wait.Seconds()
	return res
}
