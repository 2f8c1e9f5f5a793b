// Package train runs real distributed DNN training over the simulated
// cluster fabric, combining the nn/opt/data substrates with the
// gradient-centric ring exchange (Algorithm 1) or the worker-aggregator
// baseline. It produces the accuracy results behind the paper's Figs. 4,
// 13 and 14 and collects the gradient streams behind Fig. 5 and Table III.
//
// Algorithm 1 is one worker loop — local gradient, exchange, update — and
// so is this package: Run is its one entry point, over {plane} ×
// {collective}. Options.Plane picks the data plane (plane.go: in-process
// fabric or loopback TCP) and Options.Algo the collective (loop.go: ring,
// worker-aggregator, the two hierarchies, the in-network switch). Every
// run is the one fixed-membership loop, runFixed, whose iterations are
// computeStep → the collective's exchange → commitStep. Membership never
// changes, and nothing repairs a fault: it fails the run with its cause.
package train

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/nn"
	"inceptionn/internal/obs"
	"inceptionn/internal/opt"
	"inceptionn/internal/ring"
)

// Algorithm selects the distributed exchange.
type Algorithm int

// Supported algorithms.
const (
	// Ring is the paper's gradient-centric aggregator-free exchange.
	Ring Algorithm = iota
	// WorkerAggregator is the conventional baseline: a designated
	// aggregator sums gradients and broadcasts weights.
	WorkerAggregator
	// HierarchicalTree groups workers into rings under a global
	// aggregator (paper Fig. 1b). Requires Options.GroupSize.
	HierarchicalTree
	// HierarchicalRing uses rings at every level of the hierarchy (paper
	// Fig. 1c). Requires Options.GroupSize.
	HierarchicalRing
	// SwitchReduce aggregates in the network itself (NetReduce-style): a
	// programmable-switch node combines gradient chunks in flight and
	// multicasts the result, bit-exact with the ring collective.
	SwitchReduce
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case WorkerAggregator:
		return "worker-aggregator"
	case HierarchicalTree:
		return "hierarchical-tree"
	case HierarchicalRing:
		return "hierarchical-ring"
	case SwitchReduce:
		return "switch"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Plane selects the wire under a run.
type Plane int

// Data planes.
const (
	// InProcess runs every node in this process over comm.Fabric, with
	// Options.Processor as the NIC datapath.
	InProcess Plane = iota
	// TCP runs the nodes over genuine loopback sockets (internal/tcpfabric),
	// whose embedded NIC engines compress with error bound Options.Bound and
	// whose frames Options.Chaos faults.
	TCP
)

// Options configure a distributed training run.
type Options struct {
	Workers      int
	Algo         Algorithm
	BatchPerNode int
	Schedule     opt.StepSchedule
	Momentum     float64
	WeightDecay  float64
	Seed         int64

	// Plane is the run's wire (default InProcess).
	Plane Plane
	// Processor is the in-process plane's NIC datapath model (nil =
	// identity, no compression possible). Compress additionally tags
	// gradient traffic with ToS 0x28, opting it into the lossy codec path.
	Processor comm.WireProcessor
	Compress  bool
	// Bound is the TCP plane's codec error bound; required there when
	// Compress is set.
	Bound fpcodec.Bound

	// LocalGradTransform, if set, is applied to each worker's local
	// gradient vector before the exchange (e.g. LSB truncation, Fig. 4).
	LocalGradTransform func([]float32)
	// WeightTransform, if set, is applied to the weight vector after every
	// update (e.g. truncation of w, Fig. 4).
	WeightTransform func([]float32)
	// GradHook, if set, observes worker 0's local gradient before the
	// exchange at every iteration (Fig. 5, Table III collection). grad is
	// the replica's own gradient view: a hook that keeps it copies it.
	GradHook func(iter int, grad []float32)

	// EvalEvery > 0 evaluates worker 0's replica on the test set every
	// that many iterations (and always after the last).
	EvalEvery   int
	EvalSamples int

	// GroupSize is the intra-ring group size for the hierarchical
	// algorithms (Fig. 1b/c); Workers must be a multiple of it.
	GroupSize int

	// StepTimeout bounds every individual send/recv step of the exchange,
	// on either plane: a link stalled longer than this fails the run with a
	// timeout error naming the slow hop, instead of hanging the whole
	// training job. 0 disables the per-step deadline.
	StepTimeout time.Duration
	// ChunkSize pipelines the ring exchange: each ring block is split
	// into chunks of at most this many float32 values, so one chunk's
	// codec and reduction overlap the next chunk's transport (see
	// ring.Options.ChunkSize). 0 keeps whole-block steps.
	ChunkSize int
	// SwitchChunk bounds how many float32 values stream through the
	// SwitchReduce switch per chunk, modelling the bounded on-switch
	// aggregation memory (netsim.Params.SwitchMemBytes / 4). 0 streams the
	// whole gradient as one chunk.
	SwitchChunk int
	// Chaos, if non-nil, injects deterministic transport faults (drops,
	// corruption, truncation, partitions, crashes — see internal/fault)
	// into the TCP plane's traffic through the fabric's injector; the
	// in-process plane has no wire to fault and rejects it. Every fault
	// fails the run closed with its cause: a bad frame (CRC, codec or
	// sequence error), a step deadline, or a crash.
	Chaos *fault.Config

	// Obs, when non-nil, instruments the run: compute/exchange phase spans
	// per worker and iteration, the train_iter_seconds histogram and
	// train_loss gauge (worker 0), plus the fabric- and ring-layer
	// metrics those components emit when a recorder reaches them. Nil
	// (the zero value) disables all of it.
	Obs *obs.Recorder

	// Straggler artificially slows the listed workers by the given extra
	// compute time per iteration (inside their compute span, so traces
	// attribute it correctly). It exists to validate the critical-path
	// attribution: `inctrace blame` on a run with one straggling node must
	// point at it. Nil/empty = no injected stragglers.
	Straggler map[int]time.Duration

	// ErrorFeedback enables residual error feedback on the lossy codec
	// (Seide et al.'s 1-bit SGD technique, cited by the paper as [25]):
	// each worker adds the previous iteration's compression error to its
	// local gradient before the exchange, so quantization error is
	// deferred rather than lost. Requires Compress and a Processor, hence
	// the in-process plane (the TCP fabric embeds its own codec, which
	// cannot report what it delivered); the codec's idempotence makes the
	// locally-computed feedback exact for the first compression stage.
	ErrorFeedback bool
}

// EvalPoint is one accuracy measurement.
type EvalPoint struct {
	Iter     int
	Accuracy float64
	Loss     float64
}

// Result summarizes a run.
type Result struct {
	Evals     []EvalPoint
	FinalAcc  float64
	FinalLoss float64

	// Traffic totals across the fabric for the whole run.
	RawBytes  int64
	WireBytes int64

	// Aggregate timing over all workers (the paper's computation-vs-
	// communication split): time in local gradient computation + weight
	// update, time blocked in the gradient exchange, and — a subset of
	// CommSeconds — time receivers sat waiting on peers (the straggler
	// signal, from the data plane's per-link wait counters). Populated by
	// every multi-worker runner whether or not Options.Obs is set.
	ComputeSeconds       float64
	CommSeconds          float64
	StragglerWaitSeconds float64

	// FinalWeights is worker 0's weight vector (all replicas are identical
	// under the ring algorithm; verified by tests).
	FinalWeights []float32
}

// Builder constructs a model replica from a seed-derived RNG.
type Builder func(*rand.Rand) *nn.Network

// prepare is the one place a run's options are checked and defaulted. It
// returns the collective o.Algo selects. An option the run would never
// read is an error, not a silent no-op.
func (o *Options) prepare() (collective, error) {
	inproc := o.Plane == InProcess
	switch {
	case o.Workers < 1:
		return collective{}, fmt.Errorf("train: %d workers", o.Workers)
	case o.BatchPerNode < 1:
		return collective{}, fmt.Errorf("train: batch per node %d", o.BatchPerNode)
	case o.Plane != InProcess && o.Plane != TCP:
		return collective{}, fmt.Errorf("train: unknown plane %d", o.Plane)
	case inproc && o.Chaos != nil:
		return collective{}, fmt.Errorf("train: Chaos is read only on the TCP plane (the in-process fabric has no wire to fault)")
	case inproc && o.Bound != (fpcodec.Bound{}):
		return collective{}, fmt.Errorf("train: Bound is read only on the TCP plane (the in-process fabric's codec is Processor)")
	case !inproc && o.Processor != nil:
		return collective{}, fmt.Errorf("train: Processor is read only on the in-process plane (the TCP fabric embeds its own engines at Bound)")
	case !inproc && o.Compress && o.Bound == (fpcodec.Bound{}):
		return collective{}, fmt.Errorf("train: Compress on the TCP plane requires Bound")
	case o.ErrorFeedback && (!inproc || !o.Compress || o.Processor == nil):
		return collective{}, fmt.Errorf("train: ErrorFeedback requires Compress and a Processor on the in-process plane (the TCP fabric's codec cannot report what it delivered)")
	case o.StepTimeout < 0:
		return collective{}, fmt.Errorf("train: StepTimeout %v is negative", o.StepTimeout)
	case o.ChunkSize < 0:
		return collective{}, fmt.Errorf("train: ChunkSize %d is negative", o.ChunkSize)
	case o.SwitchChunk < 0:
		return collective{}, fmt.Errorf("train: SwitchChunk %d is negative", o.SwitchChunk)
	}
	for id, d := range o.Straggler {
		switch {
		case id < 0 || id >= o.Workers:
			return collective{}, fmt.Errorf("train: Straggler names worker %d, outside [0,%d)", id, o.Workers)
		case d < 0:
			return collective{}, fmt.Errorf("train: Straggler delay %v for worker %d is negative", d, id)
		}
	}
	if o.EvalSamples == 0 {
		o.EvalSamples = 256
	}
	return collectiveFor(*o)
}

// Run trains for iters iterations and returns the result: o.Algo's
// collective over o.Plane. The training dataset is sharded across workers
// (the paper's Dᵢ partitions) and must give each at least one sample; the
// test dataset, when non-nil, is used for evaluation and must not be
// empty. A failed exchange on any worker cancels its siblings and surfaces
// as the returned error.
func Run(build Builder, trainDS, testDS data.Dataset, iters int, o Options) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("train: iters %d, want at least 1", iters)
	}
	c, err := o.prepare()
	if err != nil {
		return Result{}, err
	}
	if n := trainDS.Len(); n < o.Workers {
		return Result{}, fmt.Errorf("train: %d training samples cannot shard across %d workers", n, o.Workers)
	}
	if testDS != nil && testDS.Len() == 0 {
		return Result{}, fmt.Errorf("train: the test set is empty")
	}
	plane, err := newPlane(c.nodes(o.Workers), o)
	if err != nil {
		return Result{}, err
	}
	return runFixed(plane, c, build, trainDS, testDS, iters, o, nil)
}

// RunRingTCP is Run on the TCP plane at codec error bound bound, with
// o.Processor ignored. It predates Options.Plane and remains only for the
// benchmark harness, which passes the ring as o.Algo.
func RunRingTCP(build Builder, trainDS, testDS data.Dataset, iters int, o Options, bound fpcodec.Bound) (Result, error) {
	return Run(build, trainDS, testDS, iters, o.onTCP(bound))
}

// onTCP returns o moved onto the TCP plane: the fabric's engines, at error
// bound b, replace o.Processor.
func (o Options) onTCP(b fpcodec.Bound) Options {
	o.Plane, o.Bound, o.Processor = TCP, b, nil
	return o
}

// straggle injects the configured per-iteration compute delay for worker
// id. Callers invoke it inside the worker's compute span so the stall is
// attributed to the compute phase, exactly like genuinely slow hardware.
func (o Options) straggle(id int) {
	if d := o.Straggler[id]; d > 0 {
		time.Sleep(d)
	}
}

// ringOptions returns the ring exchange tuning derived from o for the
// given training iteration (spans recorded inside the exchange are
// attributed to it).
func (o Options) ringOptions(iter int) ring.Options {
	return ring.Options{StepTimeout: o.StepTimeout, ChunkSize: o.ChunkSize, Obs: o.Obs, ObsIter: iter}
}

// firstError picks the causal failure out of a per-worker error array: the
// worker that hit the real fault, not one that merely observed the
// cancellation it triggered.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil || (errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
	}
	return first
}

// gradTos returns the ToS value for gradient traffic under o.
func (o Options) gradTos() uint8 {
	if o.Compress {
		return comm.ToSCompress
	}
	return 0
}

// RunSingle trains one replica on the full dataset without any
// communication — the reference for distributed-equivalence tests.
func RunSingle(build Builder, trainDS, testDS data.Dataset, iters int, o Options) Result {
	w := &worker{
		net:    build(rand.New(rand.NewSource(o.Seed))),
		sgd:    opt.NewSGD(o.Schedule.Base, o.Momentum, o.WeightDecay),
		loader: data.NewLoader(trainDS, o.BatchPerNode, rand.New(rand.NewSource(o.Seed+1000))),
	}
	if o.EvalSamples == 0 {
		o.EvalSamples = 256
	}
	var res Result
	for iter := 0; iter < iters; iter++ {
		// The optimizer steps on the gradient where backward left it, and
		// clears it.
		w.forwardBackward()
		w.sgd.LR = o.Schedule.At(iter)
		w.sgd.Step(w.net.Params())
	}
	res.FinalAcc, res.FinalLoss = evaluate(w.net, testDS, o.EvalSamples)
	res.FinalWeights = w.net.Weights() // the replica ends here: handed over, not copied
	return res
}
