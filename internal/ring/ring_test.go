package ring

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
)

// finalizeFor builds the owner-block finalizer matching the processor and
// ToS (the codec roundtrip the paper's Algorithm 1 applies locally).
func finalizeFor(proc comm.WireProcessor, tos uint8) func([]float32) {
	if proc == nil || tos != comm.ToSCompress {
		return nil
	}
	return func(b []float32) { comm.ProcessInto(proc, b, b, tos) }
}

// runAllReduce executes AllReduceCtx concurrently on n nodes with the
// given per-node inputs and options and returns each node's resulting
// vector; any node error fails the test.
func runAllReduce(t *testing.T, proc comm.WireProcessor, inputs [][]float32, tos uint8, opt Options) ([][]float32, *comm.Fabric) {
	t.Helper()
	n := len(inputs)
	f := comm.NewFabric(n, proc)
	out := make([][]float32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = append([]float32(nil), inputs[i]...)
			errs[i] = AllReduceCtx(context.Background(), f.Endpoint(i), out[i], tos, finalizeFor(proc, tos), opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return out, f
}

func TestBlockBounds(t *testing.T) {
	// 10 elements in 4 blocks: sizes 3,3,2,2, contiguous and complete.
	total := 0
	prevHi := 0
	for b := 0; b < 4; b++ {
		lo, hi := BlockBounds(10, 4, b)
		if lo != prevHi {
			t.Fatalf("block %d starts at %d, want %d", b, lo, prevHi)
		}
		total += hi - lo
		prevHi = hi
	}
	if total != 10 || prevHi != 10 {
		t.Fatalf("blocks cover %d of 10", total)
	}
}

func TestAllReduceSingleNode(t *testing.T) {
	out, _ := runAllReduce(t, nil, [][]float32{{1, 2, 3}}, 0, Options{})
	if out[0][0] != 1 || out[0][2] != 3 {
		t.Fatalf("single-node allreduce changed data: %v", out[0])
	}
}

func TestAllReduceSumsExactly(t *testing.T) {
	// Integer-valued floats make ring summation exact regardless of order.
	inputs := [][]float32{
		{1, 10, 100, 1000, 2},
		{2, 20, 200, 2000, 3},
		{3, 30, 300, 3000, 4},
		{4, 40, 400, 4000, 5},
	}
	want := []float32{10, 100, 1000, 10000, 14}
	out, _ := runAllReduce(t, nil, inputs, 0, Options{})
	for node := range out {
		for i := range want {
			if out[node][i] != want[i] {
				t.Fatalf("node %d elem %d = %g, want %g", node, i, out[node][i], want[i])
			}
		}
	}
}

func TestAllReduceAllNodesIdentical(t *testing.T) {
	// Ring allreduce sums each block in a single, fixed order, so all
	// replicas end bit-identical even with floating-point inputs.
	rng := rand.New(rand.NewSource(1))
	n := 5
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, 1003)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64())
		}
	}
	out, _ := runAllReduce(t, nil, inputs, 0, Options{})
	for node := 1; node < n; node++ {
		for i := range out[0] {
			if out[node][i] != out[0][i] {
				t.Fatalf("node %d diverges from node 0 at %d: %g vs %g",
					node, i, out[node][i], out[0][i])
			}
		}
	}
}

func TestAllReduceMatchesSequentialSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 3, 4, 7, 8} {
		for _, length := range []int{1, 5, 64, 1000} {
			inputs := make([][]float32, n)
			for i := range inputs {
				inputs[i] = make([]float32, length)
				for j := range inputs[i] {
					inputs[i][j] = float32(rng.NormFloat64())
				}
			}
			want := make([]float64, length)
			for i := range inputs {
				for j, v := range inputs[i] {
					want[j] += float64(v)
				}
			}
			out, _ := runAllReduce(t, nil, inputs, 0, Options{})
			for j := range want {
				if math.Abs(float64(out[0][j])-want[j]) > 1e-4*(math.Abs(want[j])+1) {
					t.Fatalf("n=%d len=%d elem %d: got %g want %g",
						n, length, j, out[0][j], want[j])
				}
			}
		}
	}
}

// TestAllReduceBalancedTraffic: the defining property vs worker-aggregator —
// every directed ring link carries the same bytes: 2(N-1)/N × model size.
func TestAllReduceBalancedTraffic(t *testing.T) {
	n := 4
	length := 4000
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, length)
	}
	out, f := runAllReduce(t, nil, inputs, 0, Options{})
	_ = out
	wantPerLink := int64(4 * length * 2 * (n - 1) / n)
	for i := 0; i < n; i++ {
		right := (i + 1) % n
		got := f.Stats(i, right).RawBytes.Load()
		if got != wantPerLink {
			t.Errorf("link %d->%d carried %d raw bytes, want %d", i, right, got, wantPerLink)
		}
		// No traffic on non-ring links.
		for j := 0; j < n; j++ {
			if j != right && f.Stats(i, j).Messages.Load() != 0 {
				t.Errorf("unexpected traffic %d->%d", i, j)
			}
		}
	}
}

func TestAllReduceWithCompressionBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4
	length := 2048
	inputs := make([][]float32, n)
	want := make([]float64, length)
	for i := range inputs {
		inputs[i] = make([]float32, length)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64() * 0.01)
			want[j] += float64(inputs[i][j])
		}
	}
	bound := fpcodec.MustBound(10)
	out, f := runAllReduce(t, comm.CodecProcessor{Bound: bound}, inputs, comm.ToSCompress, Options{})
	// Each element passes through at most 2(n-1) compression stages; errors
	// can accumulate linearly in the worst case.
	tol := bound.MaxError() * float64(2*(n-1))
	for j := range want {
		if math.Abs(float64(out[0][j])-want[j]) > tol {
			t.Fatalf("elem %d: got %g want %g (tol %g)", j, out[0][j], want[j], tol)
		}
	}
	if raw := totalRawBytes(f); f.TotalWireBytes() >= raw {
		t.Errorf("compression did not reduce wire bytes: %d vs raw %d", f.TotalWireBytes(), raw)
	}
}

func TestQuickAllReduceProperty(t *testing.T) {
	f := func(seed int64, nRaw, lenRaw uint8) bool {
		n := int(nRaw%6) + 2
		length := int(lenRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, n)
		want := make([]float64, length)
		for i := range inputs {
			inputs[i] = make([]float32, length)
			for j := range inputs[i] {
				inputs[i][j] = float32(rng.Intn(100) - 50) // exact in float32
				want[j] += float64(inputs[i][j])
			}
		}
		fab := comm.NewFabric(n, nil)
		out := make([][]float32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = append([]float32(nil), inputs[i]...)
				errs[i] = AllReduceCtx(context.Background(), fab.Endpoint(i), out[i], 0, nil, Options{})
			}(i)
		}
		wg.Wait()
		if errors.Join(errs...) != nil {
			return false
		}
		for node := range out {
			for j := range want {
				if float64(out[node][j]) != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerAggregatorExchange(t *testing.T) {
	const workers = 4
	const gradLen = 100
	f := comm.NewFabric(workers+1, nil)
	aggID := workers
	var wg sync.WaitGroup

	// Aggregator: weights = -sum (a recognizable transform).
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := AggregateStepCtx(context.Background(), f.Endpoint(aggID), []int{0, 1, 2, 3}, gradLen, func(sum []float32) []float32 {
			w := make([]float32, len(sum))
			for i, v := range sum {
				w[i] = -v
			}
			return w
		}, Options{})
		if err != nil {
			t.Error(err)
		}
	}()

	results := make([][]float32, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := make([]float32, gradLen)
			for j := range g {
				g[j] = float32(i + 1)
			}
			var err error
			if results[i], err = WorkerExchangeCtx(context.Background(), f.Endpoint(i), aggID, g, 0); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range results {
		for j, v := range results[i] {
			if v != -10 { // -(1+2+3+4)
				t.Fatalf("worker %d elem %d = %g, want -10", i, j, v)
			}
		}
	}
	// Aggregator links concentrate all traffic: the bottleneck the paper
	// identifies. Each worker link carries gradLen up and gradLen down.
	for i := 0; i < workers; i++ {
		up := f.Stats(i, aggID).RawBytes.Load()
		down := f.Stats(aggID, i).RawBytes.Load()
		if up != 4*gradLen || down != 4*gradLen {
			t.Errorf("worker %d: up=%d down=%d", i, up, down)
		}
	}
}

func TestWorkerAggregatorCompressedGradLegOnly(t *testing.T) {
	const workers = 2
	const gradLen = 4096
	bound := fpcodec.MustBound(10)
	f := comm.NewFabric(workers+1, comm.CodecProcessor{Bound: bound})
	aggID := workers
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := AggregateStepCtx(context.Background(), f.Endpoint(aggID), []int{0, 1}, gradLen, func(sum []float32) []float32 {
			return sum
		}, Options{})
		if err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := make([]float32, gradLen)
			for j := range g {
				g[j] = 1e-5 // compresses to the 2-bit class
			}
			if _, err := WorkerExchangeCtx(context.Background(), f.Endpoint(i), aggID, g, comm.ToSCompress); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	up := f.Stats(0, aggID).PayloadBytes.Load()
	down := f.Stats(aggID, 0).PayloadBytes.Load()
	if up >= 4*gradLen/8 {
		t.Errorf("gradient leg not compressed: %d bytes", up)
	}
	if down != 4*gradLen {
		t.Errorf("weight leg must be uncompressed: %d bytes", down)
	}
}

// TestAllReduceChunkedBitIdentical pins the pipelining contract: for any
// ChunkSize (including sizes that do not divide the block, exceed the
// block, or are not group multiples) the chunked exchange produces
// bit-identical results to the unchunked one, with and without the lossy
// codec on the wire.
func TestAllReduceChunkedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, vec = 4, 10*1024 + 7
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, vec)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64() * 0.01)
		}
	}
	procs := map[string]comm.WireProcessor{
		"raw":   nil,
		"codec": comm.CodecProcessor{Bound: fpcodec.MustBound(10)},
	}
	for name, proc := range procs {
		tos := uint8(0)
		if proc != nil {
			tos = comm.ToSCompress
		}
		want, _ := runAllReduce(t, proc, inputs, tos, Options{})
		for _, chunkSize := range []int{1, 64, 1000, 3000, vec * 2} {
			got, _ := runAllReduce(t, proc, inputs, tos, Options{ChunkSize: chunkSize})
			for i := range got {
				for j := range got[i] {
					if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
						t.Fatalf("%s chunk=%d node %d idx %d: %g vs %g",
							name, chunkSize, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestAllReduceChunkedShortVector covers blocks that are empty or smaller
// than one chunk (more nodes than gradient values).
func TestAllReduceChunkedShortVector(t *testing.T) {
	inputs := [][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	want := []float32{16, 20}
	out, _ := runAllReduce(t, nil, inputs, 0, Options{ChunkSize: 8})
	for i := range out {
		for j, v := range out[i] {
			if v != want[j] {
				t.Fatalf("node %d: got %v, want %v", i, out[i], want)
			}
		}
	}
}

// totalRawBytes sums pre-compression payload bytes over all of f's links.
func totalRawBytes(f *comm.Fabric) int64 {
	var total int64
	for i := 0; i < f.N(); i++ {
		for j := 0; j < f.N(); j++ {
			total += f.Stats(i, j).RawBytes.Load()
		}
	}
	return total
}
