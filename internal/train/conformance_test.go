package train

import (
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
// ring's per-block accumulation order. The same holds through faults the
// run is built to hide, on the one wire that can be faulted: TCP links
// that drop and corrupt frames (retransmission), and a switch port going
// silent with the fallback armed (the run heals onto the ring). The
// lossy-codec group and the collectives that sum in a different order
// have their own clean in-process reference.
// Three workers as well as four where the ring's blocks are in play, so
// the uneven split is covered.
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
		// reference's, and the Result when there is one.
		run func(o Options) ([][]float32, Result, error)
		// rawVectors, when set, is the exact pre-codec traffic of one
		// iteration in gradient vectors (the TCP plane's closed form; it
		// must not round per worker when the worker count does not divide
		// the vector).
		rawVectors func(workers int) int64
		// fallbacks is how many collective fallbacks the row's fault forces.
		fallbacks int
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
	// lossyLinks drops and corrupts frames on every link, within what the
	// TCP fabric's retransmission recovers.
	lossyLinks := func(o *Options) {
		o.StepTimeout = 15 * time.Second
		o.Chaos = &fault.Config{Seed: 11, Default: fault.LinkFaults{DropRate: 0.03, CorruptRate: 0.03}}
	}
	// deadUplink silences worker 0's port into the switch from its third
	// frame on, with the fallback armed: the switch sees the stall first
	// (port 0 is the one it reads first), and its complaint must not abort
	// the exchanges whose step deadline trips the gate.
	deadUplink := func(o *Options) {
		o.Algo, o.Recovery, o.StepTimeout = SwitchReduce, SwitchFallback, time.Second
		o.Chaos = &fault.Config{Seed: 6, Links: map[fault.Link]fault.LinkFaults{
			{Src: 0, Dst: o.Workers}: fault.Partition(2),
		}}
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
		{"lossless", []int{4, 3}, same, []row{
			{"ring chunk=100", func(o *Options) { o.ChunkSize = 100 }, inproc, nil, 0},
			{"ring chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, inproc, nil, 0},
			{"ring lossy links", lossyLinks, tcp, ringVectors, 0},
			{"ring tcp", same, tcp, ringVectors, 0},
			{"ring tcp chunk=4096", func(o *Options) { o.ChunkSize = 4096 }, tcp, ringVectors, 0},
			{"switch", viaSwitch, inproc, nil, 0},
			{"switch chunk=3000", func(o *Options) { o.Algo, o.SwitchChunk = SwitchReduce, 3000 }, inproc, nil, 0},
			{"switch tcp", viaSwitch, tcp, func(n int) int64 { return 2 * int64(n) }, 0},
			{"switch tcp dead uplink", deadUplink, tcp, nil, 1},
			{"replicas", same, replicas, nil, 0},
		}},
		{"compressed", []int{4, 3}, func(o *Options) { o.Compress, o.Processor = true, comm.CodecProcessor{Bound: bound} }, []row{
			{"ring tcp", same, tcp, ringVectors, 0},
		}},
		{"worker-aggregator", []int{4}, func(o *Options) { o.Algo = WorkerAggregator }, []row{
			{"tcp", same, tcp, nil, 0},
			{"lossy links", lossyLinks, tcp, nil, 0},
		}},
		{"hierarchical-tree", []int{4}, hierarchy(HierarchicalTree), []row{
			{"tcp", same, tcp, nil, 0},
			{"lossy links", lossyLinks, tcp, nil, 0},
		}},
		{"hierarchical-ring", []int{4}, hierarchy(HierarchicalRing), []row{
			{"tcp", same, tcp, nil, 0},
			{"lossy links", lossyLinks, tcp, nil, 0},
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
					if len(got) == 0 {
						t.Fatal("no weight vectors returned")
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
					// Identical weights evaluate identically; only a fault
					// aimed at the service node may force a fallback, and no
					// plane may lose its traffic or receive-wait accounting.
					assertBitIdentical(t, res, ref)
					if res.Fallbacks != r.fallbacks {
						t.Errorf("Fallbacks = %d, want %d (cause %q)", res.Fallbacks, r.fallbacks, res.FallbackCause)
					}
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
