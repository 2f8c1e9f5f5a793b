package train

import (
	"context"
	"sort"
	"sync"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/obs"
)

// tally is one worker's wall-clock attribution, in nanoseconds. Each
// worker goroutine owns its slot; the run reads it after joining them.
type tally struct{ compute, comm int64 }

// session is what every runner's workers share: the inputs, the data
// plane, the run-wide cancellation scope, and the accumulators behind
// Result. The fixed-membership loop and the elastic runner both embed it
// and drive their workers through its two iteration halves, computeStep
// and commitStep, with their own exchange in between.
type session struct {
	o       Options
	iters   int
	build   Builder
	trainDS data.Dataset
	testDS  data.Dataset // nil skips every evaluation
	plane   *dataPlane

	ctx    context.Context
	cancel context.CancelFunc

	tallies   []tally        // indexed by worker id
	iterHist  *obs.Histogram // train_iter_seconds (nil-safe)
	lossGauge *obs.Gauge     // train_loss (nil-safe)

	mu    sync.Mutex
	evals map[int]EvalPoint // keyed by iter; replays overwrite
}

func newSession(plane *dataPlane, build Builder, trainDS, testDS data.Dataset, iters int, o Options) *session {
	s := &session{
		o: o, iters: iters, build: build, trainDS: trainDS, testDS: testDS, plane: plane,
		tallies:   make([]tally, o.Workers),
		iterHist:  o.Obs.Histogram("train_iter_seconds"),
		lossGauge: o.Obs.Gauge("train_loss"),
		evals:     make(map[int]EvalPoint),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// computeStep is the first half of Algorithm 1's iteration on worker w:
// the local gradient over the next minibatch, left in w.net.Grads() ready
// to exchange (after the optional transform and error feedback), observed
// by GradHook on the leader — a view, valid until the exchange — and
// snapshotted when the run can replay.
func (s *session) computeStep(w *worker, iter int, leader bool) {
	o := s.o
	t0 := time.Now()
	csp := o.Obs.Span(w.id, iter, obs.PhaseCompute)
	w.loss = w.forwardBackward()
	o.straggle(w.id)
	if o.LocalGradTransform != nil {
		o.LocalGradTransform(w.net.Grads())
	}
	var residualPre []float32
	if w.snaps != nil && w.residual != nil {
		residualPre = append([]float32(nil), w.residual...)
	}
	w.applyErrorFeedback(o)
	csp.End()
	if leader && o.GradHook != nil {
		o.GradHook(iter, w.net.Grads())
	}
	if w.snaps != nil {
		w.takeSnapshot(iter, residualPre)
	}
	s.tallies[w.id].compute += time.Since(t0).Nanoseconds()
}

// commitStep is the second half, after the exchange delivered: apply the
// update and, on the leader, report the finished iteration (whose pass
// began at passStart) to the iteration histogram, loss gauge and
// evaluation trail. The exchange left either the gradient
// sum over n contributors in w.net.Grads(), or — when an aggregator
// already stepped the master copy — the new weights.
func (s *session) commitStep(w *worker, iter int, passStart time.Time, weights []float32, n int, leader bool) {
	o := s.o
	ta := time.Now()
	if weights != nil {
		copy(w.net.Weights(), weights)
	} else {
		w.applyAveraged(iter, o, n)
	}
	s.tallies[w.id].compute += time.Since(ta).Nanoseconds()
	if !leader {
		return
	}
	s.iterHist.Observe(time.Since(passStart))
	s.lossGauge.Set(w.loss)
	if s.testDS != nil && o.EvalEvery > 0 && ((iter+1)%o.EvalEvery == 0 || iter == s.iters-1) {
		acc, loss := evaluate(w.net, s.testDS, o.EvalSamples)
		s.mu.Lock()
		s.evals[iter+1] = EvalPoint{Iter: iter + 1, Accuracy: acc, Loss: loss}
		s.mu.Unlock()
	}
}

// result assembles what every runner reports the same way: the evaluation
// trail in iteration order, the compute/communication split summed over
// workers, and the plane's traffic totals.
func (s *session) result() Result {
	var res Result
	s.mu.Lock()
	for _, p := range s.evals {
		res.Evals = append(res.Evals, p)
	}
	s.mu.Unlock()
	sort.Slice(res.Evals, func(i, j int) bool { return res.Evals[i].Iter < res.Evals[j].Iter })
	var compute, comm int64
	for _, t := range s.tallies {
		compute += t.compute
		comm += t.comm
	}
	res.ComputeSeconds = time.Duration(compute).Seconds()
	res.CommSeconds = time.Duration(comm).Seconds()
	var wait time.Duration
	res.RawBytes, res.WireBytes, wait = s.plane.traffic()
	res.StragglerWaitSeconds = wait.Seconds()
	return res
}
