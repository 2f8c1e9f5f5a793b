package mpi

import (
	"context"
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

// TestCollectivesUnderChaos runs the ring all-reduce over a fabric with
// 1–10% fault rates and checks exact results: the TCP fabric's ARQ must
// make the lossy links indistinguishable from reliable ones.
func TestCollectivesUnderChaos(t *testing.T) {
	const n = 4
	comms, closeAll := chaosComms(t, n, lossyConfig(31))
	defer closeAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	fail := make(chan string, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			vec := []float32{float32(rank), float32(rank) * 2, 1}
			if err := comms[rank].AllReduceCtx(ctx, vec); err != nil {
				fail <- "allreduce: " + err.Error()
			} else if vec[0] != 6 || vec[1] != 12 || vec[2] != 4 {
				fail <- "allreduce values"
			}
		}(rank)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
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
