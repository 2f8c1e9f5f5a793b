// Package train runs real distributed DNN training over the simulated
// cluster fabric, combining the nn/opt/data substrates with the
// gradient-centric ring exchange (Algorithm 1) or the worker-aggregator
// baseline. It produces the accuracy results behind the paper's Figs. 4,
// 13 and 14 and collects the gradient streams behind Fig. 5 and Table III.
//
// Algorithm 1 is one worker loop — local gradient, exchange, update — and
// so is this package: Run is its one entry point, over {plane} ×
// {collective} × {recovery}. Options.Plane picks the data plane (plane.go:
// in-process fabric or loopback TCP), Options.Algo the collective (loop.go:
// ring, worker-aggregator, the two hierarchies, the in-network switch), and
// Options.Recovery what a node's death does. Fail-closed and switch-fallback
// runs share the one fixed-membership loop, runFixed, whose iterations are
// session.computeStep → the collective's exchange → session.commitStep;
// elastic runs (elastic.go) add a membership protocol around the same
// halves, plane and replay snapshots.
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
	// whose retransmit protocol carries Options.Chaos.
	TCP
)

// Recovery selects what a run does when a node dies.
type Recovery int

// Recovery policies.
const (
	// FailClosed fails the run with the first unrecoverable fault.
	FailClosed Recovery = iota
	// SwitchFallback makes SwitchReduce runs self-healing: workers grade
	// every switch-exchange error with the mpi switch health monitor, and
	// on a confirmed switch failure (hard transport self-report, or a stall
	// after the full step deadline) they roll back at most one iteration
	// from in-memory snapshots and finish the run on the ring collective —
	// bit-exact with an uninterrupted ring run, since the switch combine
	// replicates the ring's accumulation order. Requires StepTimeout > 0
	// (stall detection needs a deadline). Only the switch is expendable: a
	// worker casualty still fails the run closed.
	SwitchFallback
	// Elastic makes a ring run survive worker death and supports durable
	// checkpoint/resume (elastic.go): survivors evict the dead member,
	// agree on the shrunken ring and replay at most one iteration. On a
	// graceful stop (Options.Stop) Run returns the partial result and
	// ErrInterrupted.
	Elastic
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
	// Recovery is what a node's death does to the run (default
	// FailClosed).
	Recovery Recovery

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
	// corruption, duplication, delay, partitions, crashes — see
	// internal/fault) into the TCP plane's traffic through the fabric's
	// injector; the in-process plane has no wire to fault and rejects it.
	// The fabric's retransmit protocol repairs recoverable faults
	// transparently; unrecoverable ones surface as errors (or as a mid-run
	// fallback or eviction, under the SwitchFallback or Elastic recovery).
	Chaos *fault.Config

	// SuspectAfter enables the elastic heartbeat failure detector: a
	// worker silent for this long (after its first heartbeat) is declared
	// dead and evicted from the ring. 0 disables the detector — crashes
	// are then detected only by transport self-reports.
	SuspectAfter time.Duration
	// CheckpointDir, when non-empty, enables durable checkpoint/resume
	// for elastic runs: atomic, CRC-checked snapshots of weights, optimizer
	// state, error-feedback residuals, and data-loader cursors.
	CheckpointDir string
	// CheckpointEvery writes a periodic checkpoint every that many
	// iterations (0 = only after recoveries, on Stop, and at completion).
	CheckpointEvery int
	// CheckpointKeep prunes CheckpointDir to the newest this-many valid
	// checkpoints after each write (see GCCheckpoints). 0 means the
	// default of 3; negative disables pruning.
	CheckpointKeep int
	// Resume makes an elastic run restore the newest valid checkpoint in
	// CheckpointDir before training (fresh start if none exists).
	Resume bool
	// Join lets an elastic run on the TCP plane re-admit evicted workers:
	// when a node is declared dead, a replacement for the same id is
	// started, loads the newest valid checkpoint, and rejoins the ring at
	// the next epoch boundary with its state synchronized from a surviving
	// member.
	Join bool
	// Stop, when non-nil, drains an elastic run gracefully once closed: the
	// workers agree on a common halt iteration, write a final checkpoint,
	// and the run returns ErrInterrupted.
	Stop <-chan struct{}

	// Obs, when non-nil, instruments the run: compute/exchange phase spans
	// per worker and iteration, the train_iter_seconds histogram and
	// train_loss gauge (worker 0), plus the fabric-, ring- and
	// elastic-layer metrics those components emit when a recorder reaches
	// them. Nil (the zero value) disables all of it.
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

	// Fallbacks counts mid-run collective degradations (0 or 1: a
	// SwitchReduce run falls back to the ring at most once, and never
	// falls forward again).
	Fallbacks int
	// FallbackDetectSeconds is the latency from fault onset (the start of
	// the exchange that died) to confirmed detection; bounded by the
	// retry budget for hard evidence and by StepTimeout for stalls.
	FallbackDetectSeconds float64
	// FallbackCause is the graded suspect cause ("" when no fallback),
	// e.g. "stall: switch stream stalled: link up, combine never arrived".
	FallbackCause string
}

// Builder constructs a model replica from a seed-derived RNG.
type Builder func(*rand.Rand) *nn.Network

// prepare is the one place a run's options are checked and defaulted. It
// returns the collective o.Algo selects. An option the run would never
// read is an error, not a silent no-op.
func (o *Options) prepare() (collective, error) {
	inproc, elastic := o.Plane == InProcess, o.Recovery == Elastic
	switch {
	case o.Workers < 1:
		return collective{}, fmt.Errorf("train: %d workers", o.Workers)
	case o.BatchPerNode < 1:
		return collective{}, fmt.Errorf("train: batch per node %d", o.BatchPerNode)
	case o.Plane != InProcess && o.Plane != TCP:
		return collective{}, fmt.Errorf("train: unknown plane %d", o.Plane)
	case o.Recovery < FailClosed || o.Recovery > Elastic:
		return collective{}, fmt.Errorf("train: unknown recovery %d", o.Recovery)
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
	case o.Recovery == SwitchFallback && o.Algo != SwitchReduce:
		return collective{}, fmt.Errorf("train: SwitchFallback requires the switch algorithm (got %s)", o.Algo)
	case o.Recovery == SwitchFallback && o.StepTimeout <= 0:
		return collective{}, fmt.Errorf("train: SwitchFallback requires StepTimeout > 0 (stall detection needs a deadline)")
	case elastic && o.Algo != Ring:
		return collective{}, fmt.Errorf("train: elastic training requires the ring algorithm (got %s)", o.Algo)
	case !elastic && (o.Resume || o.CheckpointDir != "" || o.CheckpointEvery != 0 || o.Stop != nil || o.SuspectAfter != 0):
		return collective{}, fmt.Errorf("train: Resume, CheckpointDir, CheckpointEvery, Stop and SuspectAfter are read only by the Elastic recovery")
	case !(elastic && !inproc) && o.Join:
		return collective{}, fmt.Errorf("train: Join is read only by the Elastic recovery on the TCP plane")
	}
	if o.EvalSamples == 0 {
		o.EvalSamples = 256
	}
	return collectiveFor(*o)
}

// Run trains for iters iterations and returns the result: o.Algo's
// collective over o.Plane, under o.Recovery. The training dataset is
// sharded across workers (the paper's Dᵢ partitions); the test dataset is
// used for evaluation. A failed exchange on any worker cancels its siblings
// and surfaces as the returned error, unless the recovery policy absorbs
// it.
func Run(build Builder, trainDS, testDS data.Dataset, iters int, o Options) (Result, error) {
	c, err := o.prepare()
	if err != nil {
		return Result{}, err
	}
	if o.Recovery == Elastic {
		return runElastic(build, trainDS, testDS, iters, o)
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

// checkpointKeep resolves Options.CheckpointKeep: 0 means the default of
// 3, negative disables pruning (GCCheckpoints treats 0 as "keep all").
func (o Options) checkpointKeep() int {
	switch {
	case o.CheckpointKeep == 0:
		return 3
	case o.CheckpointKeep < 0:
		return 0
	}
	return o.CheckpointKeep
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
		// The optimizer steps on the gradient where backward left it.
		w.forwardBackward()
		w.sgd.LR = o.Schedule.At(iter)
		w.sgd.Step(w.net.Params())
	}
	res.FinalAcc, res.FinalLoss = evaluate(w.net, testDS, o.EvalSamples)
	res.FinalWeights = w.net.Weights() // the replica ends here: handed over, not copied
	return res
}
