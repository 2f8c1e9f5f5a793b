package mpi

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/tcpfabric"
)

// chaosComms builds one communicator per rank over a loopback TCP cluster
// whose links inject the given faults.
func chaosComms(t *testing.T, n int, cfg fault.Config) (*tcpfabric.Cluster, []*Comm) {
	t.Helper()
	cl, err := tcpfabric.NewClusterWithOptions(n, tcpfabric.ClusterOptions{
		Chaos: fault.NewInjector(n, cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, n)
	for i := range comms {
		comms[i] = WorldPeer(cl.Node(i))
	}
	return cl, comms
}

// TestCollectivesUnderChaos: one frame corrupted on the wire mid-stream
// fails the communicator's all-reduce closed. Every rank returns within a
// few step deadlines, at least one with an error and none with a bare
// cancellation, and the receiving node's reader names the hop with
// fault.ErrBadFrame.
func TestCollectivesUnderChaos(t *testing.T) {
	const n = 4
	cl, comms := chaosComms(t, n, fault.Config{
		Seed:  31,
		Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {CorruptRate: 1, From: 2, Until: 3}},
	})
	defer cl.Close()

	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		comms[rank].SetStepTimeout(500 * time.Millisecond)
		go func(rank int) {
			defer wg.Done()
			vec := make([]float32, 64)
			for i := range vec {
				vec[i] = float32(rank)
			}
			errs[rank] = comms[rank].AllReduceCtx(context.Background(), vec)
		}(rank)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("all-reduce over a corrupting link hung")
	}
	failed := 0
	for rank, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if errors.Is(err, context.Canceled) {
			t.Errorf("rank %d failed with a bare cancellation: %v", rank, err)
		}
	}
	if failed == 0 {
		t.Fatal("all-reduce succeeded over a corrupting link")
	}
	select {
	case err := <-cl.Node(1).Errors():
		if !errors.Is(err, fault.ErrBadFrame) || !strings.Contains(err.Error(), "0->1 seq 2: CRC mismatch") {
			t.Errorf("node 1 reported %v, want a CRC error on 0->1 seq 2 wrapping fault.ErrBadFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node 1 reported no error")
	}
}

// TestStepTimeoutStraggler: the per-step deadline catches a straggling
// link even when the caller's context has no deadline of its own.
func TestStepTimeoutStraggler(t *testing.T) {
	cl, comms := chaosComms(t, 2, fault.Config{
		Seed:  1,
		Links: map[fault.Link]fault.LinkFaults{{Src: 1, Dst: 0}: fault.Partition(0)},
	})
	defer cl.Close()
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
