package mpi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/tcpfabric"
)

// chaosComms builds one communicator per rank over a loopback TCP cluster
// whose links inject the given faults.
func chaosComms(t *testing.T, n int, cfg fault.Config) ([]*Comm, func()) {
	t.Helper()
	cl, err := tcpfabric.NewClusterWithOptions(n, tcpfabric.ClusterOptions{
		Chaos: fault.NewInjector(n, cfg),
		Retry: tcpfabric.RetryPolicy{ProbeRTO: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, n)
	for i := range comms {
		comms[i] = WorldPeer(cl.Node(i))
	}
	return comms, cl.Close
}

func lossyConfig(seed int64) fault.Config {
	return fault.Config{
		Seed: seed,
		Default: fault.LinkFaults{
			DropRate: 0.05, CorruptRate: 0.05, DupRate: 0.02,
			DelayRate: 0.01, Delay: time.Millisecond,
		},
	}
}

// TestCollectivesUnderChaos runs every Ctx collective over a fabric with
// 1–10% fault rates and checks exact results: the TCP fabric's ARQ must
// make the lossy links indistinguishable from reliable ones.
func TestCollectivesUnderChaos(t *testing.T) {
	const n = 4
	comms, closeAll := chaosComms(t, n, lossyConfig(31))
	defer closeAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	fail := make(chan string, n*8)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comms[rank]
			check := func(cond bool, what string) {
				if !cond {
					fail <- what
				}
			}

			// AllReduce: sum of rank-dependent vectors.
			vec := []float32{float32(rank), float32(rank) * 2, 1}
			if err := c.AllReduceCtx(ctx, vec); err != nil {
				fail <- "allreduce: " + err.Error()
				return
			}
			check(vec[0] == 6 && vec[1] == 12 && vec[2] == 4, "allreduce values")

			// Bcast from rank 1.
			b := []float32{0, 0}
			if rank == 1 {
				b = []float32{3.5, -7}
			}
			if err := c.BcastCtx(ctx, b, 1); err != nil {
				fail <- "bcast: " + err.Error()
				return
			}
			check(b[0] == 3.5 && b[1] == -7, "bcast values")

			// Reduce to rank 2.
			r := []float32{1, float32(rank)}
			if err := c.ReduceCtx(ctx, r, 2); err != nil {
				fail <- "reduce: " + err.Error()
				return
			}
			if rank == 2 {
				check(r[0] == 4 && r[1] == 6, "reduce values")
			}

			// Gather at rank 0.
			g, err := c.GatherCtx(ctx, []float32{float32(rank * 10)}, 0)
			if err != nil {
				fail <- "gather: " + err.Error()
				return
			}
			if rank == 0 {
				for i := 0; i < n; i++ {
					check(g[i][0] == float32(i*10), "gather values")
				}
			}

			// Barrier.
			if err := c.BarrierCtx(ctx); err != nil {
				fail <- "barrier: " + err.Error()
			}
		}(rank)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

// TestBarrierPartitionErrors: a barrier across a partition must error on
// a deadline, never deadlock.
func TestBarrierPartitionErrors(t *testing.T) {
	const n = 4
	comms, closeAll := chaosComms(t, n, fault.Config{
		Seed:  1,
		Links: map[fault.Link]fault.LinkFaults{{Src: 1, Dst: 0}: fault.Partition(0)},
	})
	defer closeAll()
	for _, c := range comms {
		c.SetStepTimeout(300 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = comms[rank].BarrierCtx(ctx)
		}(rank)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("partitioned barrier hung")
	}
	// Rank 1's token to rank 0 is blackholed: the reduce leg must fail on
	// at least those two ranks (sender retries out, receiver times out).
	anyTimeout := false
	for _, err := range errs {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, fault.ErrMaxRetries) {
			anyTimeout = true
		}
	}
	if !anyTimeout {
		t.Errorf("no rank surfaced a timeout: %v", errs)
	}
}

// TestStepTimeoutStraggler: the per-step deadline catches a straggling
// link even when the caller's context has no deadline of its own.
func TestStepTimeoutStraggler(t *testing.T) {
	comms, closeAll := chaosComms(t, 2, fault.Config{
		Seed:  1,
		Links: map[fault.Link]fault.LinkFaults{{Src: 1, Dst: 0}: fault.Partition(0)},
	})
	defer closeAll()
	comms[0].SetStepTimeout(200 * time.Millisecond)
	comms[1].SetStepTimeout(200 * time.Millisecond)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			v := []float32{1}
			errs[rank] = comms[rank].AllReduceCtx(context.Background(), v)
		}(rank)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("partitioned AllReduce succeeded with no deadline firing")
	}
}
