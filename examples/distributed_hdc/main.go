// Distributed HDC training: the paper's handwritten-digit workload trained
// end to end on a simulated 4-worker cluster, comparing the worker-
// aggregator baseline against the INCEPTIONN ring algorithm with and
// without in-NIC gradient compression. Every byte really moves through the
// fabric and the NIC codec's group kernel; only the network link timing is
// simulated.
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
	trainDS := data.NewDigits(4000, 11)
	testDS := data.NewDigits(600, 12)

	base := train.Options{
		Workers:      4,
		BatchPerNode: 16,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         1,
		EvalSamples:  600,
	}
	const iters = 250

	configs := []struct {
		name string
		mod  func(o train.Options) train.Options
	}{
		{"worker-aggregator (WA)", func(o train.Options) train.Options {
			o.Algo = train.WorkerAggregator
			return o
		}},
		{"INCEPTIONN ring (INC)", func(o train.Options) train.Options {
			o.Algo = train.Ring
			return o
		}},
		{"INCEPTIONN ring + NIC compression (INC+C)", func(o train.Options) train.Options {
			o.Algo = train.Ring
			o.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
			o.Compress = true
			return o
		}},
	}

	fmt.Printf("training %s on synthetic digits: 4 workers x batch 16, %d iterations\n\n",
		"HDC (5x fully connected, width 128)", iters)
	for _, c := range configs {
		res, err := train.Run(models.NewHDCSmall, trainDS, testDS, iters, c.mod(base))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-44s accuracy %5.1f%%  traffic %6.1f MB raw -> %6.1f MB wire\n",
			c.name, 100*res.FinalAcc,
			float64(res.RawBytes)/(1<<20), float64(res.WireBytes)/(1<<20))
	}
	fmt.Println("\nThe ring exchanges gradients on both legs, so compression applies to")
	fmt.Println("all traffic; the WA baseline could only compress the gradient leg.")
}
