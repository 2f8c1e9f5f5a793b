// Hierarchical organizations: train the same workload on 8 workers under
// the three cluster organizations of the paper's Fig. 1 — the conventional
// worker-aggregator baseline (1a), ring groups under a global aggregator
// (1b), and rings at every level (1c) — with in-NIC compression where each
// organization permits it.
package main

import (
	"fmt"
	"log"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

func main() {
	trainDS := data.NewDigits(4000, 21)
	testDS := data.NewDigits(600, 22)
	base := train.Options{
		Workers:      8,
		BatchPerNode: 8,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         5,
		EvalSamples:  600,
		Processor:    comm.CodecProcessor{Bound: fpcodec.MustBound(10)},
		Compress:     true,
	}
	const iters = 200

	configs := []struct {
		name string
		mod  func(train.Options) train.Options
	}{
		{"Fig. 1a: flat worker-aggregator", func(o train.Options) train.Options {
			o.Algo = train.WorkerAggregator
			return o
		}},
		{"Fig. 1b: ring groups under an aggregator", func(o train.Options) train.Options {
			o.Algo = train.HierarchicalTree
			o.GroupSize = 4
			return o
		}},
		{"Fig. 1c: rings at every level", func(o train.Options) train.Options {
			o.Algo = train.HierarchicalRing
			o.GroupSize = 4
			return o
		}},
	}

	fmt.Printf("HDC on 8 workers (2 groups of 4), %d iterations, NIC compression 2^-10\n\n", iters)
	for _, c := range configs {
		res, err := train.Run(models.NewHDCSmall, trainDS, testDS, iters, c.mod(base))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-44s accuracy %5.1f%%  wire %7.1f MB (raw %7.1f MB, %.1fx saved)\n",
			c.name, 100*res.FinalAcc,
			float64(res.WireBytes)/(1<<20), float64(res.RawBytes)/(1<<20),
			float64(res.RawBytes)/float64(res.WireBytes))
	}
	fmt.Println("\nEvery leg of Fig. 1c carries gradients, so compression applies everywhere;")
	fmt.Println("Fig. 1a can only compress the worker->aggregator leg.")
}
