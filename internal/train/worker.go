package train

import (
	"fmt"
	"math/rand"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/nn"
	"inceptionn/internal/opt"
)

// batchSource abstracts the minibatch stream: data.Loader for the fixed
// runners, data.StepLoader (seekable) for the elastic runner.
type batchSource interface {
	Next() data.Batch
}

// worker is the per-node training state. Its gradient vector — Algorithm
// 1's g, the buffer every exchange reduces in place — is net.Grads()
// itself: backward accumulates into it, the collective sums into it, the
// optimizer steps on it.
type worker struct {
	id       int
	net      *nn.Network
	sgd      *opt.SGD
	loader   batchSource
	sl       *data.StepLoader // loader, when it is the seekable kind (elastic runs)
	residual []float32        // error-feedback state (nil unless enabled)
	loss     float64          // training loss of the newest local gradient
	// snaps retains the newest iteration boundaries for replay; nil unless
	// the run armed a recovery policy (see armSnapshots).
	snaps *[2]*snapshot
}

// newWorker builds worker id's replica, optimizer and loader. seekable
// selects the counter-based loader whose position is a serializable cursor
// (the elastic runner rewinds and checkpoints it).
func newWorker(id int, build Builder, trainDS data.Dataset, o Options, seekable bool) *worker {
	// All replicas are built from the same seed, so they start identical —
	// the paper's "initialize by the same model weights w0". Data loading
	// uses a per-worker seed over the worker's own shard. The shard is cut
	// by the configured worker count, never the live membership: survivor
	// shards do not change across evictions, so recovery and resume see
	// identical sample streams.
	net := build(rand.New(rand.NewSource(o.Seed)))
	shard := data.NewPartition(trainDS, id, o.Workers)
	w := &worker{
		id:  id,
		net: net,
		sgd: opt.NewSGD(o.Schedule.Base, o.Momentum, o.WeightDecay),
	}
	if seekable {
		w.sl = data.NewStepLoader(shard, o.BatchPerNode, o.Seed+int64(1000+id))
		w.loader = w.sl
	} else {
		w.loader = data.NewLoader(shard, o.BatchPerNode, rand.New(rand.NewSource(o.Seed+int64(1000+id))))
	}
	if o.ErrorFeedback {
		w.residual = make([]float32, net.NumParams())
	}
	return w
}

// applyErrorFeedback folds the residual into the gradient, replaces the
// gradient with what the codec will deliver, and stores the new error.
func (w *worker) applyErrorFeedback(o Options) {
	if w.residual == nil {
		return
	}
	grad := w.net.Grads()
	for i := range grad {
		grad[i] += w.residual[i]
	}
	delivered, _ := o.Processor.Process(grad, comm.ToSCompress)
	for i := range grad {
		w.residual[i] = grad[i] - delivered[i]
		grad[i] = delivered[i]
	}
}

// forwardBackward runs one forward/backward pass over the next minibatch,
// leaving the local gradient in net.Grads().
func (w *worker) forwardBackward() float64 {
	batch := w.loader.Next()
	w.net.ZeroGrads()
	logits := w.net.Forward(batch.X, true)
	var sce nn.SoftmaxCrossEntropy
	loss, dlogits := sce.Loss(logits, batch.Labels)
	w.net.Backward(dlogits)
	return loss
}

// applyAveraged turns the gradient sum the exchange left in net.Grads()
// into the average over n, the number of replicas that contributed, steps
// the local optimizer on it and runs the optional weight transform. The
// fixed runners always pass o.Workers; the elastic runner passes the live
// member count, renormalizing the average after an eviction.
func (w *worker) applyAveraged(iter int, o Options, n int) {
	inv := float32(1) / float32(n)
	summed := w.net.Grads()
	for i := range summed {
		summed[i] *= inv
	}
	w.sgd.LR = o.Schedule.At(iter)
	w.sgd.Step(w.net.Params())
	if o.WeightTransform != nil {
		o.WeightTransform(w.net.Weights())
	}
}

// velocity returns the optimizer's momentum view, laid out like
// net.Weights(). The worker's optimizer only ever steps its own network,
// so a layout mismatch is a bug.
func (w *worker) velocity() []float32 {
	vel, err := w.sgd.Velocity(w.net.Params())
	if err != nil {
		panic(err)
	}
	return vel
}

// setState overwrites the replica's weights and optimizer momentum with
// vectors captured elsewhere (a snapshot, a checkpoint, a sync source).
func (w *worker) setState(weights, velocity []float32) error {
	if n := w.net.NumParams(); len(weights) != n || len(velocity) != n {
		return fmt.Errorf("train: state of %d weights and %d momentum values, model has %d", len(weights), len(velocity), n)
	}
	copy(w.net.Weights(), weights)
	copy(w.velocity(), velocity)
	return nil
}

// evaluate measures accuracy and loss on up to n samples of ds.
func evaluate(net *nn.Network, ds data.Dataset, n int) (acc, loss float64) {
	n = min(n, ds.Len())
	const evalBatch = 64
	var sce nn.SoftmaxCrossEntropy
	correct, total := 0, 0
	var lossSum float64
	for off := 0; off < n; off += evalBatch {
		hi := min(off+evalBatch, n)
		idx := make([]int, hi-off)
		for i := range idx {
			idx[i] = off + i
		}
		b := data.MakeBatch(ds, idx)
		logits := net.Forward(b.X, false)
		l, _ := sce.Loss(logits, b.Labels)
		lossSum += l * float64(len(idx))
		pred := nn.Predict(logits)
		for i, p := range pred {
			if p == b.Labels[i] {
				correct++
			}
		}
		total += len(idx)
	}
	return float64(correct) / float64(total), lossSum / float64(total)
}

// snapshot is one retained iteration boundary, taken right before the
// gradient exchange. Neither a ring nor a switch exchange can complete for
// any worker until every worker has engaged it, so survivors of a failure
// are at most one iteration apart and two snapshots cover any replay point
// a recovery protocol can pick.
type snapshot struct {
	iter        int
	cursor      uint64    // seekable loader position *before* this iteration's batch
	weights     []float32 // pre-update
	velocity    []float32 // pre-update
	residualPre []float32 // error-feedback state before this iteration folded in
	residual    []float32 // ... and after (what a replay must restore)
	grad        []float32 // post-feedback local gradient, ready to exchange
}

// armSnapshots makes computeStep retain replay snapshots. Only runs with a
// recovery policy pay for them: each is three model-sized copies per
// worker-iteration, the only ones an iteration makes.
func (w *worker) armSnapshots() { w.snaps = new([2]*snapshot) }

// takeSnapshot records the state needed to replay iteration iter. A
// snapshot for an iteration already on file (a replayed one) replaces it
// in place, so the previous iteration — which a straggling survivor may
// still force us back to — is never evicted early.
func (w *worker) takeSnapshot(iter int, residualPre []float32) {
	s := &snapshot{
		iter:        iter,
		weights:     append([]float32(nil), w.net.Weights()...),
		velocity:    append([]float32(nil), w.velocity()...),
		residualPre: residualPre,
		grad:        append([]float32(nil), w.net.Grads()...),
	}
	if w.sl != nil {
		s.cursor = w.sl.Cursor() - 1 // Next() already advanced past iter's batch
	}
	if w.residual != nil {
		s.residual = append([]float32(nil), w.residual...)
	}
	if w.snaps[0] != nil && w.snaps[0].iter == iter {
		w.snaps[0] = s
		return
	}
	w.snaps[1], w.snaps[0] = w.snaps[0], s
}

// snapFor returns the retained snapshot for iter, or nil.
func (w *worker) snapFor(iter int) *snapshot {
	if w.snaps == nil {
		return nil
	}
	for _, s := range w.snaps {
		if s != nil && s.iter == iter {
			return s
		}
	}
	return nil
}

// restoreSnapshot rewinds the worker to the pre-exchange state of iter:
// weights, optimizer state, the seekable loader's cursor (past iter's
// batch), the post-feedback residual, and the retained local gradient,
// which the replayed exchange reuses instead of recomputing — so a plain
// rand-based loader advances exactly once per iteration and never needs
// seeking.
func (w *worker) restoreSnapshot(iter int) error {
	s := w.snapFor(iter)
	if s == nil {
		return fmt.Errorf("train: worker %d has no snapshot for iteration %d (survivor skew exceeded the retained window)", w.id, iter)
	}
	if err := w.setState(s.weights, s.velocity); err != nil {
		return err
	}
	if w.sl != nil {
		w.sl.Seek(s.cursor + 1)
	}
	copy(w.net.Grads(), s.grad)
	if w.residual != nil && s.residual != nil {
		copy(w.residual, s.residual)
	}
	return nil
}
