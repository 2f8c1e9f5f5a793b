package ring

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
)

// raceEnabled is set by race_on_test.go under `go test -race`, whose
// runtime is free to allocate on its own account.
var raceEnabled bool

// TestCompressedChunkedAllReduceAllocatesLittle: a warm chunked (4096)
// compressed all-reduce of HDC's 1,149,010 gradient floats over a 4-node
// in-process fabric allocates a small share of the bytes it moves. Every
// chunk is decompressed into a buffer its link lends, and each link keeps
// as many buffers as a pipelined step puts in flight (71 chunks of a
// 287,253-float block), so what a call still allocates is per step
// (goroutines, contexts), not per chunk. The lists hold their buffers
// weakly, so the collector is off during the test (a collection would
// empty them). Under -race, whose runtime is free to allocate on its own
// account, only the byte share is checked.
func TestCompressedChunkedAllReduceAllocatesLittle(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nodes, floats, chunk = 4, 1_149_010, 4096
	proc := comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	f := comm.NewFabric(nodes, proc)
	rng := rand.New(rand.NewSource(3))
	grads := make([][]float32, nodes)
	for i := range grads {
		grads[i] = make([]float32, floats)
		for j := range grads[i] {
			grads[i][j] = float32(rng.NormFloat64() * 0.01)
		}
	}
	call := func() {
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for i := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = AllReduceCtx(context.Background(), f.Endpoint(i), grads[i], comm.ToSCompress,
					finalizeFor(proc, comm.ToSCompress), Options{ChunkSize: chunk})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		}
	}
	for range 4 {
		call()
	}
	// A link makes a buffer whenever its high-water mark of chunks in
	// flight rises, which a window of calls may or may not see; the warm
	// cost is the least of several windows.
	const windows, calls = 5, 2
	bytes, allocs := int64(math.MaxInt64), int64(0)
	var moved int64
	for range windows {
		raw := totalRawBytes(f)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			call()
		}
		runtime.ReadMemStats(&after)
		moved = (totalRawBytes(f) - raw) / calls
		if b := int64(after.TotalAlloc-before.TotalAlloc) / calls; b < bytes {
			bytes, allocs = b, int64(after.Mallocs-before.Mallocs)/calls
		}
	}
	messages := int64(nodes * 2 * (nodes - 1) * numChunks(floats/nodes+1, chunk))
	t.Logf("per call: %d bytes allocated (%.2f%% of %d moved), %d allocations for %d messages",
		bytes, 100*float64(bytes)/float64(moved), moved, allocs, messages)
	if bytes > moved/100 {
		t.Errorf("%d bytes allocated per call, over 1%% of the %d bytes it moves", bytes, moved)
	}
	if !raceEnabled && allocs > messages/4 {
		t.Errorf("%d allocations per call, over one per four of its %d messages", allocs, messages)
	}
}
