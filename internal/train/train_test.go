package train

import (
	"math"
	"strings"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/opt"
)

func digitsOptions() Options {
	return Options{
		Workers:      4,
		Algo:         Ring,
		BatchPerNode: 16,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         42,
		EvalSamples:  300,
	}
}

func digitsData() (data.Dataset, data.Dataset) {
	return data.NewDigits(4000, 1), data.NewDigits(500, 99)
}

func TestRingTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.9 {
		t.Fatalf("ring training accuracy = %.3f, want > 0.9 (loss %.3f)", res.FinalAcc, res.FinalLoss)
	}
	if res.RawBytes == 0 || res.WireBytes == 0 {
		t.Error("no traffic recorded")
	}
}

func TestWorkerAggregatorTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = WorkerAggregator
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.9 {
		t.Fatalf("WA training accuracy = %.3f, want > 0.9", res.FinalAcc)
	}
}

// TestRingReplicasStayIdentical is the paper's model-replica property: with
// the deterministic ring exchange, every worker's weights remain
// bit-identical throughout training — even with lossy compression enabled,
// because all workers apply the same aggregated gradient.
func TestRingReplicasStayIdentical(t *testing.T) {
	trainDS, _ := digitsData()
	for _, compress := range []bool{false, true} {
		o := digitsOptions()
		if compress {
			o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
			o.Compress = true
		}
		weights, err := replicaWeights(models.NewHDCSmall, trainDS, 30, o)
		if err != nil {
			t.Fatal(err)
		}
		for id := 1; id < len(weights); id++ {
			for i := range weights[0] {
				if weights[id][i] != weights[0][i] {
					t.Fatalf("compress=%v: replica %d diverged from replica 0 at weight %d: %g vs %g",
						compress, id, i, weights[id][i], weights[0][i])
				}
			}
		}
	}
}

// TestRingMatchesWorkerAggregatorLossless: both algorithms compute the same
// mathematical update (sum of local gradients); they should reach closely
// matching weights given identical seeds and data.
func TestRingMatchesWorkerAggregatorLossless(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.EvalSamples = 300
	resRing, err := Run(models.NewHDCSmall, trainDS, testDS, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Algo = WorkerAggregator
	resWA, err := Run(models.NewHDCSmall, trainDS, testDS, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	// Floating-point summation order differs (ring reduces blocks in ring
	// order, the aggregator in worker order), and the tiny per-step
	// rounding drift compounds through training, so compare after a short
	// run with a small tolerance.
	var maxDiff float64
	for i := range resRing.FinalWeights {
		d := math.Abs(float64(resRing.FinalWeights[i] - resWA.FinalWeights[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("ring and WA weights diverged by %g after 8 iters", maxDiff)
	}
}

// TestCompressionPreservesConvergence is the core accuracy claim (Figs. 12
// and 14): training with in-NIC lossy compression at error bound 2^-10
// reaches essentially the same accuracy as lossless training.
func TestCompressionPreservesConvergence(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	base, err := Run(models.NewHDCSmall, trainDS, testDS, 300, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	o.Compress = true
	comp, err := Run(models.NewHDCSmall, trainDS, testDS, 300, o)
	if err != nil {
		t.Fatal(err)
	}
	if comp.FinalAcc < base.FinalAcc-0.05 {
		t.Errorf("compressed accuracy %.3f vs lossless %.3f: degradation exceeds 5%%",
			comp.FinalAcc, base.FinalAcc)
	}
	if comp.WireBytes >= base.WireBytes/2 {
		t.Errorf("compression saved too little: %d vs %d wire bytes", comp.WireBytes, base.WireBytes)
	}
}

func TestCompressionReducesTrafficWAGradLegOnly(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = WorkerAggregator
	base, err := Run(models.NewHDCSmall, trainDS, testDS, 20, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	o.Compress = true
	comp, err := Run(models.NewHDCSmall, trainDS, testDS, 20, o)
	if err != nil {
		t.Fatal(err)
	}
	// Only the gradient leg (half the raw traffic) compresses: savings must
	// be real but bounded below ~50%.
	if comp.WireBytes >= base.WireBytes {
		t.Error("WA compression saved nothing")
	}
	if comp.WireBytes < base.WireBytes/3 {
		t.Errorf("WA compression saved too much (%d vs %d): weight leg must stay uncompressed",
			comp.WireBytes, base.WireBytes)
	}
}

func TestGradHookObservesGradients(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	count := 0
	var lastLen int
	o.GradHook = func(iter int, grad []float32) {
		count++
		lastLen = len(grad)
	}
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("hook fired %d times, want 10", count)
	}
	wantLen := 784*128 + 128 + 3*(128*128+128) + 128*10 + 10
	if lastLen != wantLen {
		t.Errorf("gradient length %d, want %d", lastLen, wantLen)
	}
}

func TestLocalGradTransformApplied(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.LocalGradTransform = func(g []float32) {
		for i := range g {
			g[i] = 0 // degenerate: no learning possible
		}
	}
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 30, o)
	if err != nil {
		t.Fatal(err)
	}
	// With zeroed gradients the network cannot beat chance by much.
	if res.FinalAcc > 0.3 {
		t.Errorf("accuracy %.3f with zeroed gradients; transform not applied?", res.FinalAcc)
	}
}

func TestEvalHistory(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.EvalEvery = 20
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 60, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 3 {
		t.Fatalf("got %d eval points, want 3", len(res.Evals))
	}
	if res.Evals[2].Iter != 60 {
		t.Errorf("last eval at iter %d", res.Evals[2].Iter)
	}
}

func TestRunValidation(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Workers = 0
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err == nil {
		t.Error("expected error for zero workers")
	}
	o = digitsOptions()
	o.BatchPerNode = 0
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err == nil {
		t.Error("expected error for zero batch")
	}
	if _, err := replicaWeights(models.NewHDCSmall, trainDS, 1, o); err == nil {
		t.Error("replicaWeights: expected error for zero batch")
	}
	o = digitsOptions()
	o.Algo = Algorithm(99)
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err == nil {
		t.Error("expected error for an unknown algorithm")
	}
	if got := o.Algo.String(); got != "Algorithm(99)" {
		t.Errorf("Algorithm(99).String() = %q", got)
	}

	// Error feedback needs the codec to say what it delivered: only the
	// in-process fabric's Processor can, and only when compressing.
	bound := fpcodec.MustBound(10)
	o = digitsOptions()
	o.ErrorFeedback = true
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err == nil {
		t.Error("expected error for ErrorFeedback without Compress and a Processor")
	}
	o.Compress, o.Processor = true, comm.CodecProcessor{Bound: bound}
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err != nil {
		t.Errorf("ErrorFeedback with Compress and a Processor: %v", err)
	}
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o.onTCP(bound)); err == nil {
		t.Error("expected error for ErrorFeedback over the TCP fabric")
	}

	// A dataset too small for the run is an error, not a worker panic on an
	// empty shard nor a NaN accuracy over an empty test set.
	o = digitsOptions()
	if _, err := Run(models.NewHDCSmall, data.NewDigits(o.Workers-1, 1), testDS, 1, o); err == nil {
		t.Errorf("expected error for %d training samples over %d workers", o.Workers-1, o.Workers)
	}
	o.EvalEvery = 1
	if res, err := Run(models.NewHDCSmall, trainDS, data.NewDigits(0, 99), 1, o); err == nil {
		t.Errorf("expected error for an empty test set; got accuracy %v, loss %v", res.FinalAcc, res.FinalLoss)
	}
}

// TestRunnersRejectOptionsTheyNeverRead: an option a run would ignore
// fails it up front, so a chaos schedule cannot leave an in-process run
// unfaulted, nor an in-process codec quietly stand in for the TCP
// fabric's. Each row is one shape of run: the in-process plane and the TCP
// plane through Options.Plane. (RunRingTCP moves a run onto the TCP plane
// and discards Processor itself, so it has no unread option left.)
func TestRunnersRejectOptionsTheyNeverRead(t *testing.T) {
	trainDS, testDS := digitsData()
	bound, build := fpcodec.MustBound(10), models.NewHDCSmall
	runners := map[string]func(Options) (Result, error){
		"Run": func(o Options) (Result, error) { return Run(build, trainDS, testDS, 1, o) },
		"TCP": func(o Options) (Result, error) {
			o.Plane = TCP
			return Run(build, trainDS, testDS, 1, o)
		},
	}
	fields := map[string]func(*Options){
		"Chaos":     func(o *Options) { o.Chaos = &fault.Config{Seed: 1} },
		"Bound":     func(o *Options) { o.Bound = bound },
		"Processor": func(o *Options) { o.Processor = comm.CodecProcessor{Bound: bound} },
	}
	unread := map[string][]string{
		"Run": {"Chaos", "Bound"},
		"TCP": {"Processor"},
	}
	for runner, names := range unread {
		for _, field := range names {
			t.Run(runner+"/"+field, func(t *testing.T) {
				o := digitsOptions()
				o.Workers = 2
				fields[field](&o)
				_, err := runners[runner](o)
				if err == nil || !strings.Contains(err.Error(), field) {
					t.Fatalf("%s with %s set: err = %v, want it rejected by name", runner, field, err)
				}
			})
		}
	}
}

func TestRunSingleConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.BatchPerNode = 64
	res := RunSingle(models.NewHDCSmall, trainDS, testDS, 300, o)
	if res.FinalAcc < 0.9 {
		t.Fatalf("single-node accuracy = %.3f", res.FinalAcc)
	}
}

// TestHierarchicalTrainingConverges exercises the Fig. 1b/1c organizations
// end to end: 8 workers in two ring groups of four.
func TestHierarchicalTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	for _, algo := range []Algorithm{HierarchicalTree, HierarchicalRing} {
		o := digitsOptions()
		o.Workers = 8
		o.GroupSize = 4
		o.Algo = algo
		o.BatchPerNode = 8
		res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.FinalAcc < 0.85 {
			t.Errorf("%v: accuracy %.3f", algo, res.FinalAcc)
		}
	}
}

// TestHierarchicalRingCompressedConverges: Fig. 1c with in-NIC compression
// on every level.
func TestHierarchicalRingCompressedConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Workers = 8
	o.GroupSize = 4
	o.Algo = HierarchicalRing
	o.BatchPerNode = 8
	o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	o.Compress = true
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.85 {
		t.Errorf("accuracy %.3f with hierarchical compression", res.FinalAcc)
	}
	if res.WireBytes >= res.RawBytes/2 {
		t.Errorf("hierarchical compression ineffective: %d vs %d", res.WireBytes, res.RawBytes)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = HierarchicalRing
	o.Workers = 6
	o.GroupSize = 4 // not divisible
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 1, o); err == nil {
		t.Error("expected topology validation error")
	}
}

// TestErrorFeedbackImprovesCoarseCompression: at the coarse 2^-6 bound,
// residual error feedback should recover accuracy lost to quantization
// (the 1-bit-SGD technique the paper cites as complementary).
func TestErrorFeedbackImprovesCoarseCompression(t *testing.T) {
	trainDS, testDS := digitsData()
	run := func(ef bool) float64 {
		o := digitsOptions()
		o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(6)}
		o.Compress = true
		o.ErrorFeedback = ef
		res, err := Run(models.NewHDCSmall, trainDS, testDS, 200, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAcc
	}
	plain := run(false)
	withEF := run(true)
	if withEF < plain-0.02 {
		t.Errorf("error feedback hurt: %.3f -> %.3f", plain, withEF)
	}
	t.Logf("coarse-bound accuracy: plain %.3f, with error feedback %.3f", plain, withEF)
}

// TestRingTCPTrainingConverges: end-to-end training over genuine loopback
// TCP sockets, lossless and with in-NIC compression.
func TestRingTCPTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	bound := fpcodec.MustBound(10)
	for _, compress := range []bool{false, true} {
		o := digitsOptions()
		o.Compress = compress
		res, err := Run(models.NewHDCSmall, trainDS, testDS, 120, o.onTCP(bound))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if res.FinalAcc < 0.85 {
			t.Errorf("compress=%v: TCP training accuracy %.3f", compress, res.FinalAcc)
		}
		if compress && res.WireBytes >= res.RawBytes/2 {
			t.Errorf("TCP compression ineffective: %d wire vs %d raw", res.WireBytes, res.RawBytes)
		}
		if !compress && res.WireBytes < res.RawBytes {
			t.Errorf("lossless TCP moved %d wire < %d raw (framing must add bytes)",
				res.WireBytes, res.RawBytes)
		}
	}
}
