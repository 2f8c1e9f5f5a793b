package mpi

import (
	"context"
	"math"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/tcpfabric"
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

// TestGatherOverTCPKeepsWhatItReceives: a TCP node lends each received
// payload only until the next receive from that source and then decodes
// later frames into it, so GatherCtx must copy what it returns. Gather
// once, run more gathers of the same shape over the same links, and the
// first result must still hold the first round's values.
func TestGatherOverTCPKeepsWhatItReceives(t *testing.T) {
	const n, dim, rounds = 4, 64, 4
	cl, err := tcpfabric.NewCluster(n, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var first [][]float32
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := WorldPeer(cl.Node(rank))
			for round := 0; round < rounds; round++ {
				vec := make([]float32, dim)
				for i := range vec {
					vec[i] = float32(1000*round + 10*rank + i)
				}
				res, err := c.GatherCtx(context.Background(), vec, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if rank == 0 && round == 0 {
					first = res
				}
			}
		}(rank)
	}
	wg.Wait()
	for r, vec := range first {
		for i, v := range vec {
			if v != float32(10*r+i) {
				t.Fatalf("rank %d's gathered vector changed after later receives: elem %d = %g, want %d", r, i, v, 10*r+i)
			}
		}
	}
}

func TestBcastAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for root := 0; root < n; root++ {
			var mu sync.Mutex
			results := make(map[int][]float32)
			runRanks(t, n, nil, func(c *Comm) {
				vec := make([]float32, 16)
				if c.Rank() == root {
					for i := range vec {
						vec[i] = float32(i + 100*root)
					}
				}
				if err := c.BcastCtx(context.Background(), vec, root); err != nil {
					t.Error(err)
				}
				mu.Lock()
				results[c.Rank()] = vec
				mu.Unlock()
			})
			for rank, vec := range results {
				for i := range vec {
					if vec[i] != float32(i+100*root) {
						t.Fatalf("n=%d root=%d rank=%d elem %d = %g", n, root, rank, i, vec[i])
					}
				}
			}
		}
	}
}

func TestReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for root := 0; root < n; root++ {
			var mu sync.Mutex
			var rootVec []float32
			runRanks(t, n, nil, func(c *Comm) {
				vec := []float32{float32(c.Rank() + 1), 2}
				if err := c.ReduceCtx(context.Background(), vec, root); err != nil {
					t.Error(err)
				}
				if c.Rank() == root {
					mu.Lock()
					rootVec = vec
					mu.Unlock()
				}
			})
			wantFirst := float32(n * (n + 1) / 2)
			if rootVec[0] != wantFirst || rootVec[1] != float32(2*n) {
				t.Fatalf("n=%d root=%d: reduced %v, want [%g %g]", n, root, rootVec, wantFirst, float32(2*n))
			}
		}
	}
	// Mismatch rows: a peer's vector is never indexed or copied on trust.
	// Rank 1 holds 3 floats against rank 0's 2, so the receiving side of
	// each tree leg must return an error (not panic, not copy short).
	runRanks(t, 2, nil, func(c *Comm) {
		vec := make([]float32, 2+c.Rank())
		if err := c.ReduceCtx(context.Background(), vec, 0); (err != nil) != (c.Rank() == 0) {
			t.Errorf("mismatched reduce, rank %d: err = %v", c.Rank(), err)
		}
		if err := c.BcastCtx(context.Background(), vec, 0); (err != nil) != (c.Rank() == 1) {
			t.Errorf("mismatched bcast, rank %d: err = %v", c.Rank(), err)
		}
	})
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

func TestGather(t *testing.T) {
	n := 5
	var mu sync.Mutex
	var gathered [][]float32
	runRanks(t, n, nil, func(c *Comm) {
		vec := make([]float32, c.Rank()+1) // ragged
		for i := range vec {
			vec[i] = float32(c.Rank())
		}
		res, err := c.GatherCtx(context.Background(), vec, 2)
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 2 {
			mu.Lock()
			gathered = res
			mu.Unlock()
		} else if res != nil {
			t.Errorf("non-root rank %d got non-nil gather", c.Rank())
		}
	})
	for r := 0; r < n; r++ {
		if len(gathered[r]) != r+1 {
			t.Fatalf("rank %d contributed %d elems, want %d", r, len(gathered[r]), r+1)
		}
		for _, v := range gathered[r] {
			if v != float32(r) {
				t.Fatalf("rank %d data corrupted: %v", r, gathered[r])
			}
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		done := make(chan struct{})
		go func() {
			runRanks(t, n, nil, func(c *Comm) {
				for i := 0; i < 10; i++ {
					if err := c.BarrierCtx(context.Background()); err != nil {
						t.Error(err)
					}
				}
			})
			close(done)
		}()
		<-done
	}
}

func TestCollectiveCommCompTagsGradientTraffic(t *testing.T) {
	n := 4
	bound := fpcodec.MustBound(10)
	// Tight values compress heavily when the ToS flag is on.
	f := runRanks(t, n, comm.CodecProcessor{Bound: bound}, func(c *Comm) {
		c.CollectiveCommComp(true)
		if !c.Compressing() {
			t.Error("Compressing() = false after enable")
		}
		vec := make([]float32, 8192)
		for i := range vec {
			vec[i] = 1e-5
		}
		if err := c.AllReduceCtx(context.Background(), vec); err != nil {
			t.Error(err)
		}
	})
	if f.TotalWireBytes() >= f.TotalRawBytes()/4 {
		t.Errorf("compressed collectives moved %d wire bytes for %d raw",
			f.TotalWireBytes(), f.TotalRawBytes())
	}

	// With the flag off, wire bytes exceed raw (headers).
	f2 := runRanks(t, n, comm.CodecProcessor{Bound: bound}, func(c *Comm) {
		c.CollectiveCommComp(false)
		vec := make([]float32, 8192)
		if err := c.AllReduceCtx(context.Background(), vec); err != nil {
			t.Error(err)
		}
	})
	if f2.TotalWireBytes() <= f2.TotalRawBytes() {
		t.Errorf("uncompressed wire bytes %d <= raw %d", f2.TotalWireBytes(), f2.TotalRawBytes())
	}
}

func TestBcastNeverCompressed(t *testing.T) {
	// Weights must never be lossy even when compression is enabled.
	n := 3
	bound := fpcodec.MustBound(6)
	var mu sync.Mutex
	results := make([][]float32, n)
	runRanks(t, n, comm.CodecProcessor{Bound: bound}, func(c *Comm) {
		c.CollectiveCommComp(true)
		vec := make([]float32, 100)
		if c.Rank() == 0 {
			for i := range vec {
				vec[i] = 1e-5 // would be crushed to 0 by the codec
			}
		}
		if err := c.BcastCtx(context.Background(), vec, 0); err != nil {
			t.Error(err)
		}
		mu.Lock()
		results[c.Rank()] = vec
		mu.Unlock()
	})
	for rank, vec := range results {
		for i, v := range vec {
			if math.Abs(float64(v)-1e-5) > 1e-12 {
				t.Fatalf("rank %d elem %d = %g: broadcast was lossy", rank, i, v)
			}
		}
	}
}

func newTestFabric(n int) *comm.Fabric { return comm.NewFabric(n, nil) }
