package mpi

import (
	"context"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
)

// runRanks executes body on n concurrent ranks over a fresh fabric.
func runRanks(t *testing.T, n int, proc comm.WireProcessor, body func(c *Comm)) *comm.Fabric {
	t.Helper()
	f := comm.NewFabric(n, proc)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(World(f, i))
		}(i)
	}
	wg.Wait()
	return f
}

func TestAllReduceMatchesReduceBcast(t *testing.T) {
	n := 4
	var mu sync.Mutex
	results := make([][]float32, n)
	runRanks(t, n, nil, func(c *Comm) {
		vec := []float32{float32(c.Rank()), 1, float32(c.Rank() * c.Rank())}
		if err := c.AllReduceCtx(context.Background(), vec); err != nil {
			t.Error(err)
		}
		mu.Lock()
		results[c.Rank()] = vec
		mu.Unlock()
	})
	want := []float32{0 + 1 + 2 + 3, 4, 0 + 1 + 4 + 9}
	for rank, vec := range results {
		for i := range want {
			if vec[i] != want[i] {
				t.Fatalf("rank %d elem %d = %g, want %g", rank, i, vec[i], want[i])
			}
		}
	}
}

func TestCollectiveCommCompTagsGradientTraffic(t *testing.T) {
	const n, dim = 4, 8192
	bound := fpcodec.MustBound(10)
	allReduce := func(enabled bool) *comm.Fabric {
		return runRanks(t, n, comm.CodecProcessor{Bound: bound}, func(c *Comm) {
			c.CollectiveCommComp(enabled)
			vec := make([]float32, dim)
			for i := range vec {
				vec[i] = 1e-5 // tight values compress heavily when the ToS flag is on
			}
			if err := c.AllReduceCtx(context.Background(), vec); err != nil {
				t.Error(err)
			}
		})
	}
	// The ring sends 2(n−1) blocks of dim/n floats from each of n ranks.
	const raw = 2 * (n - 1) * dim * 4
	// With the flag off, wire bytes exceed raw (headers).
	plain := allReduce(false).TotalWireBytes()
	if plain <= raw {
		t.Errorf("uncompressed wire bytes %d <= raw %d", plain, raw)
	}
	if comp := allReduce(true).TotalWireBytes(); comp >= raw/4 {
		t.Errorf("compressed collectives moved %d wire bytes for %d raw", comp, raw)
	}
}
