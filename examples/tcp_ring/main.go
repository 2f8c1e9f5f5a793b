// TCP ring: Algorithm 1 running over genuine loopback TCP sockets — the
// closest this repository gets to the paper's real cluster. Compressed
// bytes (not models of them) cross the sockets when compression is on.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/ring"
	"inceptionn/internal/tcpfabric"
)

func main() {
	const workers = 4
	const elems = 1 << 20 // 4 MB gradient vector
	bound := fpcodec.MustBound(10)

	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float32, workers)
	for i := range inputs {
		inputs[i] = make([]float32, elems)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64() * 0.002)
		}
	}

	run := func(compress bool) (time.Duration, int64) {
		cluster, err := tcpfabric.NewCluster(workers, compress, bound)
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		tos := uint8(0)
		var finalize func([]float32)
		if compress {
			tos = comm.ToSCompress
			proc := comm.CodecProcessor{Bound: bound}
			finalize = func(b []float32) {
				comm.ProcessInto(proc, b, b, comm.ToSCompress)
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				g := append([]float32(nil), inputs[id]...)
				if err := ring.AllReduceCtx(context.Background(), cluster.Node(id), g, tos, finalize, ring.Options{}); err != nil {
					log.Fatal(err)
				}
			}(id)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var sent int64
		for id := 0; id < workers; id++ {
			sent += cluster.Node(id).SentBytes()
		}
		return elapsed, sent
	}

	fmt.Printf("ring allreduce of %d MB across %d workers over loopback TCP\n\n",
		4*elems>>20, workers)
	tRaw, bRaw := run(false)
	fmt.Printf("  lossless:    %8.1f ms, %6.1f MB on the sockets\n",
		float64(tRaw.Microseconds())/1000, float64(bRaw)/(1<<20))
	tC, bC := run(true)
	fmt.Printf("  compressed:  %8.1f ms, %6.1f MB on the sockets (%.1fx less)\n",
		float64(tC.Microseconds())/1000, float64(bC)/(1<<20), float64(bRaw)/float64(bC))
}
