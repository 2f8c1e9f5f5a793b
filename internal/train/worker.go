package train

import (
	"math/rand"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/nn"
	"inceptionn/internal/opt"
	"inceptionn/internal/tensor"
)

// worker is the per-node training state. Its gradient vector — Algorithm
// 1's g, the buffer every exchange reduces in place — is net.Grads()
// itself: backward accumulates into it, the collective sums into it, the
// optimizer steps on it and clears it.
type worker struct {
	id       int
	net      *nn.Network
	sgd      *opt.SGD
	loader   *data.Loader
	residual []float32 // error-feedback state (nil unless enabled)
	loss     float64   // training loss of the newest local gradient
}

// newWorker builds worker id's replica, optimizer and loader.
func newWorker(id int, build Builder, trainDS data.Dataset, o Options) *worker {
	// All replicas are built from the same seed, so they start identical —
	// the paper's "initialize by the same model weights w0". Data loading
	// uses a per-worker seed over the worker's own shard.
	net := build(rand.New(rand.NewSource(o.Seed)))
	shard := data.NewPartition(trainDS, id, o.Workers)
	w := &worker{
		id:     id,
		net:    net,
		sgd:    opt.NewSGD(o.Schedule.Base, o.Momentum, o.WeightDecay),
		loader: data.NewLoader(shard, o.BatchPerNode, rand.New(rand.NewSource(o.Seed+int64(1000+id)))),
	}
	if o.ErrorFeedback {
		w.residual = make([]float32, net.NumParams())
	}
	return w
}

// applyErrorFeedback folds the residual into the gradient, replaces the
// gradient in place with what the codec will deliver, and stores the new
// error, which the residual holds the folded gradient for meanwhile.
func (w *worker) applyErrorFeedback(o Options) {
	if w.residual == nil {
		return
	}
	grad := w.net.Grads()
	tensor.Add(grad, w.residual)
	copy(w.residual, grad)
	comm.ProcessInto(o.Processor, grad, grad, comm.ToSCompress)
	for i, d := range grad {
		w.residual[i] -= d
	}
}

// forwardBackward runs one forward/backward pass over the next minibatch,
// leaving the local gradient in net.Grads(), which the previous
// iteration's step (or commitStep, where an aggregator stepped) cleared.
func (w *worker) forwardBackward() float64 {
	batch := w.loader.Next()
	logits := w.net.Forward(batch.X, true)
	var sce nn.SoftmaxCrossEntropy
	loss, dlogits := sce.Loss(logits, batch.Labels)
	w.net.Backward(dlogits)
	return loss
}

// applyAveraged steps the local optimizer on the average over the
// o.Workers replicas of the gradient sum the exchange left in
// net.Grads() — one pass that scales, steps and clears it — and runs the
// optional weight transform.
func (w *worker) applyAveraged(iter int, o Options) {
	w.sgd.LR = o.Schedule.At(iter)
	w.sgd.StepScaled(w.net.Params(), float32(1)/float32(o.Workers))
	if o.WeightTransform != nil {
		o.WeightTransform(w.net.Weights())
	}
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
