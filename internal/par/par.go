// Package par provides the shared worker pool behind every parallel hot
// path in this repository: the tensor matmul kernels, the convolution
// batch loops, and the codec stream sharding all fan out through For. It
// also holds HasAVX2, the one CPU probe the SIMD kernels of tensor and
// fpcodec choose their path by.
//
// Design constraints, in order:
//
//  1. Determinism. The shard decomposition of For is a pure function of
//     (n, grain, Workers()) — never of scheduling — and every caller
//     writes only its own disjoint index range, so results are
//     bit-identical for any worker count, including 1.
//  2. No deadlock under nesting. A parallel convolution calls a parallel
//     matmul per sample; naive fixed pools deadlock when every worker
//     blocks waiting on shards that only other workers could run. Here a
//     submitter that finds the queue full runs the shard inline, and a
//     waiter helps drain the queue instead of blocking, so some goroutine
//     can always make progress.
//  3. Graceful degradation. On a single-CPU machine (Workers() == 1)
//     every For call runs inline on the caller with zero overhead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers, when positive, overrides runtime.GOMAXPROCS as the shard
// cap. Tests use it to force the parallel stitching paths on single-CPU
// machines (and to pin the sequential path on many-CPU ones).
var maxWorkers atomic.Int64

// Workers returns the maximum number of shards a For call fans out to.
func Workers() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers overrides the shard cap (n <= 0 restores the GOMAXPROCS
// default) and returns the previous override (0 if none was set). It is
// safe for concurrent use, but callers that need a stable cap for a
// region — tests comparing parallel against sequential results — should
// not run concurrently with other SetMaxWorkers callers.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MinOps is the approximate number of scalar operations a shard must
// amortize before goroutine fan-out pays for itself.
const MinOps = 1 << 15

// GrainFor returns the For grain (minimum indices per shard) for loop
// bodies costing roughly opsPerItem scalar operations per index.
func GrainFor(opsPerItem int) int {
	if opsPerItem <= 0 {
		return MinOps
	}
	g := MinOps / opsPerItem
	if g < 1 {
		g = 1
	}
	return g
}

// group tracks one For call's outstanding shards.
type group struct {
	body    func(lo, hi int)
	pending atomic.Int64
	done    chan struct{}
}

func (g *group) run(lo, hi int) {
	g.body(lo, hi)
	if g.pending.Add(-1) == 0 {
		close(g.done)
	}
}

// task is one queued shard.
type task struct {
	lo, hi int
	g      *group
}

var (
	poolOnce sync.Once
	queue    chan task
)

// pool lazily starts the persistent workers (one per CPU; the submitting
// caller itself acts as an extra worker while it waits).
func pool() chan task {
	poolOnce.Do(func() {
		n := runtime.NumCPU()
		queue = make(chan task, 8*n+64)
		for i := 0; i < n; i++ {
			go func() {
				for t := range queue {
					t.g.run(t.lo, t.hi)
				}
			}()
		}
	})
	return queue
}

// For splits [0, n) into at most Workers() contiguous shards of at least
// grain indices each and runs body(lo, hi) over every shard, potentially
// concurrently. It returns only after all shards complete. Bodies must
// confine their writes to their own [lo, hi) output ranges; under that
// contract the combined result is bit-identical for any worker count.
//
// While waiting, the caller executes queued shards (its own or another
// group's), so nested For calls cannot deadlock the pool.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	shards := (n + grain - 1) / grain
	if w := Workers(); shards > w {
		shards = w
	}
	if shards <= 1 {
		body(0, n)
		return
	}
	q := pool()
	g := &group{body: body, done: make(chan struct{})}
	g.pending.Store(int64(shards))
	per, rem := n/shards, n%shards
	lo := 0
	for s := 0; s < shards-1; s++ {
		hi := lo + per
		if s < rem {
			hi++
		}
		select {
		case q <- task{lo: lo, hi: hi, g: g}:
		default:
			// Queue saturated (deep nesting): run inline so the caller
			// always makes progress.
			g.run(lo, hi)
		}
		lo = hi
	}
	g.run(lo, n) // the caller takes the final shard
	for {
		select {
		case <-g.done:
			return
		case t := <-q:
			t.g.run(t.lo, t.hi)
		}
	}
}
