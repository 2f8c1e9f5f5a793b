package mpi

import (
	"context"
	"math"
	"sync"
	"testing"

	"inceptionn/internal/ring"
)

func TestAllGather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6} {
		var mu sync.Mutex
		results := make([][]float32, n)
		runRanks(t, n, nil, func(c *Comm) {
			vec := []float32{float32(c.Rank()), float32(c.Rank() * 10)}
			out, err := c.AllGatherCtx(context.Background(), vec)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			results[c.Rank()] = out
			mu.Unlock()
		})
		for rank, out := range results {
			if len(out) != 2*n {
				t.Fatalf("n=%d rank=%d: AllGather len %d", n, rank, len(out))
			}
			for r := 0; r < n; r++ {
				if out[2*r] != float32(r) || out[2*r+1] != float32(10*r) {
					t.Fatalf("n=%d rank=%d: block %d = %v", n, rank, r, out[2*r:2*r+2])
				}
			}
		}
	}
}

func TestReduceScatter(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		length := 4*n + 3 // uneven blocks
		var mu sync.Mutex
		results := make(map[int][]float32)
		runRanks(t, n, nil, func(c *Comm) {
			vec := make([]float32, length)
			for i := range vec {
				vec[i] = float32(i * (c.Rank() + 1))
			}
			out, err := c.ReduceScatterCtx(context.Background(), vec)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			results[c.Rank()] = out
			mu.Unlock()
		})
		// Expected sum at index i: i * (1+2+...+n).
		tri := float32(n * (n + 1) / 2)
		for rank := 0; rank < n; rank++ {
			lo, hi := ring.BlockBounds(length, n, rank)
			out := results[rank]
			if len(out) != hi-lo {
				t.Fatalf("n=%d rank=%d: block size %d, want %d", n, rank, len(out), hi-lo)
			}
			for j, v := range out {
				want := float32(lo+j) * tri
				if math.Abs(float64(v-want)) > 1e-3 {
					t.Fatalf("n=%d rank=%d elem %d: got %g want %g", n, rank, j, v, want)
				}
			}
		}
	}
}

// TestReduceScatterThenAllGatherEqualsAllReduce: the two halves compose
// into the full exchange (the structure of Algorithm 1).
func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	n := 4
	length := 8 // divisible: equal blocks, so AllGather can reassemble
	var mu sync.Mutex
	results := make([][]float32, n)
	runRanks(t, n, nil, func(c *Comm) {
		vec := make([]float32, length)
		for i := range vec {
			vec[i] = float32((c.Rank() + 1) * (i + 1))
		}
		block, err := c.ReduceScatterCtx(context.Background(), vec)
		if err != nil {
			t.Error(err)
		}
		full, err := c.AllGatherCtx(context.Background(), block)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		results[c.Rank()] = full
		mu.Unlock()
	})
	for rank, full := range results {
		for i, v := range full {
			want := float32(10 * (i + 1)) // (1+2+3+4)*(i+1)
			if v != want {
				t.Fatalf("rank %d elem %d: got %g want %g", rank, i, v, want)
			}
		}
	}
}

func TestScatter(t *testing.T) {
	n := 4
	root := 1
	var mu sync.Mutex
	results := make([][]float32, n)
	runRanks(t, n, nil, func(c *Comm) {
		var chunks [][]float32
		if c.Rank() == root {
			chunks = make([][]float32, n)
			for r := range chunks {
				chunks[r] = make([]float32, r+1) // ragged
				for i := range chunks[r] {
					chunks[r][i] = float32(100*r + i)
				}
			}
		}
		out, err := c.ScatterCtx(context.Background(), chunks, root)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
	})
	for r, out := range results {
		if len(out) != r+1 {
			t.Fatalf("rank %d chunk len %d, want %d", r, len(out), r+1)
		}
		for i, v := range out {
			if v != float32(100*r+i) {
				t.Fatalf("rank %d elem %d = %g", r, i, v)
			}
		}
	}
}

func TestScatterRejectsBadChunkCount(t *testing.T) {
	f := newTestFabric(2)
	c := World(f, 0)
	if _, err := c.ScatterCtx(context.Background(), make([][]float32, 3), 0); err == nil {
		t.Fatal("expected an error for 3 chunks on 2 ranks")
	}
}
