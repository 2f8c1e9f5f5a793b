package mpi

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"inceptionn/internal/ring"
)

// runSwitchWorld executes one switch all-reduce over p workers plus the
// switch at the last rank, returning each worker's reduced vector.
func runSwitchWorld(t *testing.T, p, vecLen int, opt SwitchOptions, fill func(rank, i int) float32) map[int][]float32 {
	t.Helper()
	sw := p
	var mu sync.Mutex
	results := make(map[int][]float32)
	runRanks(t, p+1, nil, func(c *Comm) {
		if c.Rank() == sw {
			if err := c.SwitchServeCtx(context.Background(), vecLen, opt); err != nil {
				t.Errorf("switch: %v", err)
			}
			return
		}
		vec := make([]float32, vecLen)
		for i := range vec {
			vec[i] = fill(c.Rank(), i)
		}
		if err := c.AllReduceSwitchCtx(context.Background(), vec, sw, opt); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		results[c.Rank()] = vec
		mu.Unlock()
	})
	return results
}

// TestAllReduceSwitchBitExactWithRing is the tentpole acceptance check:
// the switch collective must land on bit-identical float32 sums with the
// ring collective, across worker counts, non-divisible vector lengths,
// and chunk sizes that slice blocks mid-stream. Values are adversarial
// for associativity (wide magnitude spread), so any deviation from the
// ring's per-block accumulation order shows up as a bit difference.
func TestAllReduceSwitchBitExactWithRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		for _, vecLen := range []int{1, 7, 64, 65, 257} {
			// Shared per-rank inputs for both collectives.
			input := make([][]float32, p)
			for r := range input {
				input[r] = make([]float32, vecLen)
				for i := range input[r] {
					input[r][i] = float32((rng.Float64()*2 - 1) * 1e6 * rng.Float64())
				}
			}
			fill := func(rank, i int) float32 { return input[rank][i] }

			var mu sync.Mutex
			want := make(map[int][]float32)
			runRanks(t, p, nil, func(c *Comm) {
				vec := make([]float32, vecLen)
				for i := range vec {
					vec[i] = fill(c.Rank(), i)
				}
				if err := c.AllReduceCtx(context.Background(), vec); err != nil {
					t.Error(err)
				}
				mu.Lock()
				want[c.Rank()] = vec
				mu.Unlock()
			})

			for _, chunk := range []int{0, 1, 3, vecLen / 2, vecLen} {
				if (SwitchOptions{ChunkFloats: chunk}).Validate(vecLen) != nil {
					continue // over-chunked configs are rejected, covered below
				}
				got := runSwitchWorld(t, p, vecLen, SwitchOptions{ChunkFloats: chunk}, fill)
				if len(got) != p {
					t.Fatalf("p=%d len=%d chunk=%d: %d workers reported", p, vecLen, chunk, len(got))
				}
				for r := 0; r < p; r++ {
					for i := range got[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("p=%d len=%d chunk=%d rank=%d elem %d: switch %x ring %x",
								p, vecLen, chunk, r, i, got[r][i], want[r][i])
						}
					}
				}
			}
		}
	}
}

// TestAllReduceSwitchWindowGuard pins the tag-window validation: chunk
// counts past switchTagMod would silently wrap the mod-64 up/down tag
// bands, so both sides must reject the configuration up front with a
// sized-window error naming the smallest legal chunk — and the largest
// chunking that fits must still work.
func TestAllReduceSwitchWindowGuard(t *testing.T) {
	const p, vecLen = 3, 300
	// 150 chunks of 2 floats: both roles refuse before touching the wire.
	opt := SwitchOptions{ChunkFloats: 2}
	if err := opt.Validate(vecLen); !errors.Is(err, ErrSwitchWindow) {
		t.Fatalf("Validate(300) with 2-float chunks = %v, want ErrSwitchWindow", err)
	} else if !strings.Contains(err.Error(), "ChunkFloats >= 5") {
		t.Errorf("window error should size the minimum chunk (300/64 -> 5): %v", err)
	}
	runRanks(t, p+1, nil, func(c *Comm) {
		if c.Rank() == p {
			if err := c.SwitchServeCtx(context.Background(), vecLen, opt); !errors.Is(err, ErrSwitchWindow) {
				t.Errorf("switch accepted a wrapped tag window: %v", err)
			}
			return
		}
		vec := make([]float32, vecLen)
		if err := c.AllReduceSwitchCtx(context.Background(), vec, p, opt); !errors.Is(err, ErrSwitchWindow) {
			t.Errorf("rank %d accepted a wrapped tag window: %v", c.Rank(), err)
		}
	})

	// The minimum legal chunk (exactly 60 chunks of 5) must stream clean.
	got := runSwitchWorld(t, p, vecLen, SwitchOptions{ChunkFloats: 5}, func(rank, i int) float32 {
		return float32(rank + 1)
	})
	for r := 0; r < p; r++ {
		for i, v := range got[r] {
			if v != float32(p*(p+1)/2) {
				t.Fatalf("rank %d elem %d = %g, want %g", r, i, v, float32(p*(p+1)/2))
			}
		}
	}
}

func TestAllReduceSwitchBadRoles(t *testing.T) {
	f := newTestComm(t)
	if err := f.AllReduceSwitchCtx(context.Background(), []float32{1}, 99, SwitchOptions{}); err == nil {
		t.Fatal("out-of-range switch rank accepted")
	}
	if err := f.AllReduceSwitchCtx(context.Background(), []float32{1}, f.Rank(), SwitchOptions{}); err == nil {
		t.Fatal("switch rank calling the worker side accepted")
	}
}

// newTestComm returns a single rank of a 2-node fabric, for error-path
// tests that never touch the wire.
func newTestComm(t *testing.T) *Comm {
	t.Helper()
	var c *Comm
	runRanks(t, 2, nil, func(cc *Comm) {
		if cc.Rank() == 0 {
			c = cc
		}
	})
	return c
}

// TestScatterBoundsTiling exhaustively asserts the shard partition the
// ring and the switch combine share: for every vector length and part
// count the shards must exactly tile [0, n) — contiguous, non-overlapping,
// no element dropped — with sizes differing by at most one and larger
// shards first.
func TestScatterBoundsTiling(t *testing.T) {
	for n := 1; n <= 65; n++ {
		for parts := 1; parts <= 8; parts++ {
			next := 0
			minSize, maxSize := n, 0
			for b := 0; b < parts; b++ {
				lo, hi := ring.BlockBounds(n, parts, b)
				if lo != next {
					t.Fatalf("n=%d parts=%d block %d: lo=%d, want %d (gap or overlap)", n, parts, b, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d parts=%d block %d: hi=%d < lo=%d", n, parts, b, hi, lo)
				}
				size := hi - lo
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				if b > 0 {
					prevLo, prevHi := ring.BlockBounds(n, parts, b-1)
					if prevHi-prevLo < size {
						t.Fatalf("n=%d parts=%d block %d larger than block %d", n, parts, b, b-1)
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: shards cover [0,%d), want [0,%d)", n, parts, next, n)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("n=%d parts=%d: shard sizes range [%d,%d]", n, parts, minSize, maxSize)
			}
		}
	}
}
