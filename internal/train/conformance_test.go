package train

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
)

// replicaWeights runs in-process ring training and returns every worker's
// final weight vector, for divergence testing: runFixed keeps each
// replica's weights when handed somewhere to put them.
func replicaWeights(build Builder, trainDS data.Dataset, iters int, o Options) ([][]float32, error) {
	c, err := o.prepare()
	if err != nil {
		return nil, err
	}
	replicas := make([][]float32, o.Workers)
	_, err = runFixed(newFabricPlane(o.Workers, o), c, build, trainDS, nil, iters, o, replicas)
	return replicas, err
}

// TestFixedRunnersBitIdenticalToRing is the conformance table of the
// fixed-membership loop: every data plane × collective × chunking Run can
// reach must land on final weights bit-identical to the in-process
// whole-block ring — chunking is purely a scheduling change, the TCP
// fabric carries the same bits, and the switch's combine replays the
// ring's per-block accumulation order. The one wire that can be faulted
// hides no fault: its `lossy links` rows corrupt a frame on every TCP
// link, and each collective must fail closed with the fabric's bad-frame
// error instead of landing anywhere. The lossy-codec group and the
// collectives that sum in a different order have their own clean
// in-process reference.
// Three workers as well as four where the ring's blocks are in play, so
// the uneven split is covered, and two — the smallest ring and a two-port
// switch — in the lossless group.
// (The model has ~151k params; a switch chunk of 3000 keeps the stream
// inside the mod-64 tag window while still slicing ring blocks mid-stream
// at chunk boundaries.)
func TestFixedRunnersBitIdenticalToRing(t *testing.T) {
	const iters = 12
	trainDS, testDS := digitsData()
	bound := fpcodec.MustBound(10)

	type row struct {
		name string
		opt  func(*Options) // applied on top of the group's reference options
		// run returns the weight vectors that must all equal the
		// reference's, and the Result when there is one; a fail-closed
		// row returns none and reports a run that did not fail closed as
		// its error.
		run func(o Options) ([][]float32, Result, error)
		// rawVectors, when set, is the exact pre-codec traffic of one
		// iteration in gradient vectors (the TCP plane's closed form; it
		// must not round per worker when the worker count does not divide
		// the vector).
		rawVectors func(workers int) int64
	}
	one := func(res Result, err error) ([][]float32, Result, error) {
		return [][]float32{res.FinalWeights}, res, err
	}
	inproc := func(o Options) ([][]float32, Result, error) {
		return one(Run(models.NewHDCSmall, trainDS, testDS, iters, o))
	}
	tcp := func(o Options) ([][]float32, Result, error) {
		return inproc(o.onTCP(bound))
	}
	replicas := func(o Options) ([][]float32, Result, error) {
		ws, err := replicaWeights(models.NewHDCSmall, trainDS, iters, o)
		return ws, Result{}, err
	}
	same := func(*Options) {}
	ringVectors := func(n int) int64 { return 2 * int64(n-1) }
	// lossyLinks flips a bit of every link's sixth frame on the wire.
	lossyLinks := func(o *Options) {
		o.StepTimeout = 15 * time.Second
		o.Chaos = &fault.Config{Seed: 11, Default: fault.LinkFaults{CorruptRate: 1, From: 5, Until: 6}}
	}
	failsClosed := func(o Options) ([][]float32, Result, error) {
		_, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o.onTCP(bound))
		if !errors.Is(err, fault.ErrBadFrame) {
			return nil, Result{}, fmt.Errorf("run over corrupting links: err = %v, want one wrapping fault.ErrBadFrame", err)
		}
		return nil, Result{}, nil
	}
	hierarchy := func(algo Algorithm) func(*Options) {
		return func(o *Options) { o.Algo, o.GroupSize = algo, 2 }
	}
	viaSwitch := func(o *Options) { o.Algo = SwitchReduce }
	groups := []struct {
		name    string
		workers []int
		ref     func(*Options)
		rows    []row
	}{
		{"lossless", []int{4, 3, 2}, same, []row{
			{"ring chunk=100", func(o *Options) { o.ChunkSize = 100 }, inproc, nil},
			{"ring chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, inproc, nil},
			{"ring lossy links", lossyLinks, failsClosed, nil},
			{"ring tcp", same, tcp, ringVectors},
			{"ring tcp chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, tcp, ringVectors},
			{"switch", viaSwitch, inproc, nil},
			{"switch chunk=3000", func(o *Options) { o.Algo, o.SwitchChunk = SwitchReduce, 3000 }, inproc, nil},
			{"switch tcp", viaSwitch, tcp, func(n int) int64 { return 2 * int64(n) }},
			{"replicas", same, replicas, nil},
		}},
		{"compressed", []int{4, 3}, func(o *Options) { o.Compress, o.Processor = true, comm.CodecProcessor{Bound: bound} }, []row{
			{"ring chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, inproc, nil},
			{"ring tcp", same, tcp, ringVectors},
			{"ring tcp chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, tcp, ringVectors},
		}},
		{"worker-aggregator", []int{4}, func(o *Options) { o.Algo = WorkerAggregator }, []row{
			{"tcp", same, tcp, nil},
			{"lossy links", lossyLinks, failsClosed, nil},
		}},
		{"hierarchical-tree", []int{4}, hierarchy(HierarchicalTree), []row{
			{"tcp", same, tcp, nil},
			{"lossy links", lossyLinks, failsClosed, nil},
		}},
		{"hierarchical-ring", []int{4}, hierarchy(HierarchicalRing), []row{
			{"tcp", same, tcp, nil},
			{"lossy links", lossyLinks, failsClosed, nil},
		}},
	}

	for _, g := range groups {
		for _, workers := range g.workers {
			base := digitsOptions()
			base.Workers = workers
			base.EvalEvery = 4
			o := base
			g.ref(&o)
			ref, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
			if err != nil {
				t.Fatalf("workers=%d %s reference: %v", workers, g.name, err)
			}
			for _, r := range g.rows {
				t.Run(fmt.Sprintf("workers=%d/%s/%s", workers, g.name, r.name), func(t *testing.T) {
					o := o
					r.opt(&o)
					got, res, err := r.run(o)
					if err != nil {
						t.Fatal(err)
					}
					if got == nil {
						return // a fail-closed row, checked by its run
					}
					for rep, w := range got {
						if len(w) != len(ref.FinalWeights) {
							t.Fatalf("replica %d: %d weights, want %d", rep, len(w), len(ref.FinalWeights))
						}
						for i := range w {
							if math.Float32bits(w[i]) != math.Float32bits(ref.FinalWeights[i]) {
								t.Fatalf("replica %d: weight %d = %x, ring reference %x", rep, i, w[i], ref.FinalWeights[i])
							}
						}
					}
					if res.FinalWeights == nil {
						return // replicaWeights reports weights only
					}
					// Identical weights evaluate identically, and no plane may
					// lose its traffic or receive-wait accounting.
					assertBitIdentical(t, res, ref)
					if res.WireBytes == 0 || res.RawBytes == 0 {
						t.Error("no traffic recorded")
					}
					if res.StragglerWaitSeconds <= 0 {
						t.Errorf("StragglerWaitSeconds = %v, want the receivers' blocked time", res.StragglerWaitSeconds)
					}
					if r.rawVectors != nil {
						if want := r.rawVectors(workers) * int64(4*len(ref.FinalWeights)) * iters; res.RawBytes != want {
							t.Errorf("RawBytes = %d, want exactly %d", res.RawBytes, want)
						}
					}
				})
			}
		}
	}
}

func assertBitIdentical(t *testing.T, got, want Result) {
	t.Helper()
	if len(got.FinalWeights) != len(want.FinalWeights) {
		t.Fatalf("weight count %d, want %d", len(got.FinalWeights), len(want.FinalWeights))
	}
	for i := range got.FinalWeights {
		if got.FinalWeights[i] != want.FinalWeights[i] {
			t.Fatalf("weight %d = %x, ring reference %x", i, got.FinalWeights[i], want.FinalWeights[i])
		}
	}
	if len(got.Evals) != len(want.Evals) {
		t.Fatalf("evals %v, want %v", got.Evals, want.Evals)
	}
	for i := range got.Evals {
		if got.Evals[i] != want.Evals[i] {
			t.Fatalf("eval %d = %+v, ring reference %+v", i, got.Evals[i], want.Evals[i])
		}
	}
}
