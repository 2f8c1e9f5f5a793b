package main

// adapter.go is the only file that calls the program's end-to-end entry
// points (train.Run, train.RunRingTCP, train.RunSingle and the
// train.Options fields they read). A change that unifies the runners or
// the collectives re-points this file and nothing else in the benchmark.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/nn"
	"inceptionn/internal/obs"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

// Parameters common to every workload (ISSUE 11): the paper's testbed size
// and Table I-style hyperparameters, fixed so that runs are comparable.
const (
	workers     = 4
	momentum    = 0.9
	learnRate   = 0.02
	boundExp    = 10 // codec error bound 2^-10
	evalSamples = 256
	trainSize   = 4096 // procedural dataset sizes; samples are generated on demand
	testSize    = 512
)

var codecBound = fpcodec.MustBound(boundExp)

// inputs are everything a run is given. They are generated from the seed
// here; the program under test only ever sees these values.
type inputs struct {
	seed    int64
	trainDS data.Dataset
	testDS  data.Dataset
	build   func(*rand.Rand) *nn.Network
}

func makeInputs(w workload, seed int64) inputs {
	in := inputs{seed: seed}
	switch w.model {
	case "hdc":
		in.trainDS, in.testDS = data.NewDigits(trainSize, seed), data.NewDigits(testSize, seed+1)
		in.build = models.NewHDC
	case "alexnet":
		in.trainDS, in.testDS = data.NewImages(trainSize, seed), data.NewImages(testSize, seed+1)
		in.build = models.NewMiniAlexNet
	default:
		panic("perf: unknown model " + w.model)
	}
	return in
}

// decor carries the harness decorations of a traced run: the tracer whose
// wrappers go around the dataset, the networks and the wire processor, and
// the program's own recorder. The zero value (an untraced run) hands the
// program its inputs untouched.
type decor struct {
	tracer *tracer
	rec    *obs.Recorder
}

// runResult is what the harness reads off a train.Result.
type runResult struct {
	finalLoss    float64
	finalWeights []float32 // worker 0's replica
	wireBytes    int64     // whole run, all links
	rawBytes     int64     // the same traffic before compression and without retransmits
	// Seconds summed over the workers, measured inside the program.
	computeSeconds, commSeconds, stragglerWaitSeconds float64
}

func newRunResult(r train.Result) runResult {
	return runResult{
		finalLoss: r.FinalLoss, finalWeights: r.FinalWeights,
		wireBytes: r.WireBytes, rawBytes: r.RawBytes,
		computeSeconds: r.ComputeSeconds, commSeconds: r.CommSeconds, stragglerWaitSeconds: r.StragglerWaitSeconds,
	}
}

// runTraining drives workload w for iters iterations. hook is called on
// worker 0 once per iteration, after its local gradient is ready and
// before the exchange starts.
func runTraining(w workload, in inputs, iters int, hook func(iter int), d decor) (runResult, error) {
	algo := train.Ring
	if w.viaSwitch {
		algo = train.SwitchReduce
	}
	o := train.Options{
		Workers:      workers,
		Algo:         algo,
		BatchPerNode: w.batch,
		Schedule:     opt.StepSchedule{Base: learnRate},
		Momentum:     momentum,
		Seed:         in.seed,
		EvalSamples:  evalSamples,
		ChunkSize:    w.ringChunk,
		SwitchChunk:  w.switchChunk,
		Compress:     w.compress,
		Obs:          d.rec,
		GradHook:     func(iter int, _ []float32) { hook(iter) },
	}
	// The in-process fabric takes its codec as a WireProcessor (the fpcodec
	// stream codec); the TCP fabric ignores Options.Processor and embeds
	// its own nic burst engines.
	if w.compress && !w.tcp {
		o.Processor = comm.CodecProcessor{Bound: codecBound}
	}
	trainDS, build := in.trainDS, in.build
	if t := d.tracer; t != nil {
		trainDS = tracedDataset{Dataset: trainDS, t: t}
		build = func(rng *rand.Rand) *nn.Network { return t.wrapNetwork(in.build(rng)) }
		if o.Processor != nil {
			o.Processor = tracedProcessor{inner: o.Processor, t: t}
		}
	}
	var res train.Result
	var err error
	switch {
	case w.tcp && w.viaSwitch:
		return runResult{}, fmt.Errorf("perf: workload %s: only the ring runs over TCP here", w.name)
	case w.tcp:
		res, err = train.RunRingTCP(build, trainDS, in.testDS, iters, o, codecBound)
	default:
		res, err = train.Run(build, trainDS, in.testDS, iters, o)
	}
	return newRunResult(res), err
}

// runSingleHDC is the no-exchange baseline: one replica, no fabric.
func runSingleHDC(seed int64, batch, iters int) {
	o := train.Options{
		BatchPerNode: batch,
		Schedule:     opt.StepSchedule{Base: learnRate},
		Momentum:     momentum,
		Seed:         seed,
		EvalSamples:  1, // the evaluation pass is not part of an iteration
	}
	train.RunSingle(models.NewHDC, data.NewDigits(trainSize, seed), data.NewDigits(testSize, seed+1), iters, o)
}

// checkpointRoundTrip encodes an elastic-run checkpoint holding weights and
// as much momentum state into memory and decodes it again. It returns the
// encoded size and how long each half took.
func checkpointRoundTrip(weights []float32) (size int, write, restore time.Duration, err error) {
	ck := &train.Checkpoint{
		Universe: workers, Members: []int{0, 1, 2, 3},
		Weights: weights, Velocity: weights,
		Cursors: map[int]uint64{}, Residuals: map[int][]float32{},
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := ck.Encode(&buf); err != nil {
		return 0, 0, 0, err
	}
	write = time.Since(t0)
	size = buf.Len()
	t0 = time.Now()
	got, err := train.DecodeCheckpoint(&buf)
	if err != nil {
		return 0, 0, 0, err
	}
	restore = time.Since(t0)
	if len(got.Weights) != len(weights) {
		return 0, 0, 0, fmt.Errorf("perf: checkpoint restored %d weights, wrote %d", len(got.Weights), len(weights))
	}
	return size, write, restore, nil
}
