package mpi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/fault"
)

// switchChaosResult is one node's outcome from a chaos-injected switch
// all-reduce: its error (nil on success) and, for workers that finished,
// the reduced vector.
type switchChaosResult struct {
	err error
	vec []float32
}

// runSwitchChaos runs one switch all-reduce over p workers plus the
// switch at rank p, on a TCP cluster injecting the given faults. It
// enforces the timeout-not-deadlock contract itself: every role must
// return — success or error — well inside the watchdog.
func runSwitchChaos(t *testing.T, p int, vecLen int, opt SwitchOptions, cfg fault.Config, stepTimeout time.Duration) []switchChaosResult {
	t.Helper()
	sw := p
	cl, comms := chaosComms(t, p+1, cfg)
	defer cl.Close()
	for _, c := range comms {
		c.SetStepTimeout(stepTimeout)
	}

	results := make([]switchChaosResult, p+1)
	var wg sync.WaitGroup
	for rank := 0; rank <= p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comms[rank]
			if rank == sw {
				results[rank].err = c.SwitchServeCtx(context.Background(), vecLen, opt)
				return
			}
			vec := make([]float32, vecLen)
			for i := range vec {
				vec[i] = float32(rank + 1)
			}
			results[rank].err = c.AllReduceSwitchCtx(context.Background(), vec, sw, opt)
			results[rank].vec = vec
		}(rank)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("switch all-reduce deadlocked under chaos")
	}
	return results
}

// TestSwitchPathChaos drives faults into the worker↔switch links at every
// protocol stage — first and mid-stream chunks, up and down direction, a
// corrupted chunk, plus a switch crash mid-multicast — and asserts the
// collective fails closed: no role hangs past its step deadline, and
// every surfaced error carries its cause (a deadline, a transport
// self-report, a protocol violation), never a bare context.Canceled.
func TestSwitchPathChaos(t *testing.T) {
	const (
		p      = 3
		sw     = p
		vecLen = 64
		chunk  = 16 // 4 chunks: link seq 0..3 per direction
	)
	opt := SwitchOptions{ChunkFloats: chunk}

	cases := []struct {
		name string
		cfg  fault.Config
	}{
		{
			// Worker 0's very first upload chunk never arrives: the switch
			// stalls before any combine happens.
			name: "up link dead at first chunk",
			cfg: fault.Config{Seed: 11, Links: map[fault.Link]fault.LinkFaults{
				{Src: 0, Dst: sw}: {DropRate: 1},
			}},
		},
		{
			// The stream dies mid-flight: chunks 0–1 combine cleanly, chunk 2's
			// upload is blackholed.
			name: "up link partitioned mid-stream",
			cfg: fault.Config{Seed: 12, Links: map[fault.Link]fault.LinkFaults{
				{Src: 1, Dst: sw}: fault.Partition(2),
			}},
		},
		{
			// The multicast leg dies before the first combined chunk reaches
			// worker 1: the worker stalls, and so does the switch.
			name: "down link dead at first chunk",
			cfg: fault.Config{Seed: 13, Links: map[fault.Link]fault.LinkFaults{
				{Src: sw, Dst: 1}: {DropRate: 1},
			}},
		},
		{
			// One upload chunk has a bit flipped on the wire mid-stream: the
			// switch's reader fails it on its CRC and delivers nothing more.
			name: "up link corrupted mid-stream",
			cfg: fault.Config{Seed: 16, Links: map[fault.Link]fault.LinkFaults{
				{Src: 1, Dst: sw}: {CorruptRate: 1, From: 2, Until: 3},
			}},
		},
		{
			// Downstream dies mid-stream, on the last chunk of one port only.
			name: "down link partitioned at last chunk",
			cfg: fault.Config{Seed: 14, Links: map[fault.Link]fault.LinkFaults{
				{Src: sw, Dst: 2}: fault.Partition(3),
			}},
		},
		{
			// The switch itself dies partway through a multicast (a chunk's
			// fan-out is p frames; crash after 4 lands mid-chunk-1).
			name: "switch crash mid-multicast",
			cfg:  fault.Config{Seed: 15, CrashAfter: map[int]uint64{sw: 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			results := runSwitchChaos(t, p, vecLen, opt, tc.cfg, 500*time.Millisecond)
			elapsed := time.Since(start)

			failed := 0
			for rank, res := range results {
				if res.err == nil {
					continue
				}
				failed++
				if errors.Is(res.err, context.Canceled) {
					t.Errorf("rank %d failed with a bare cancellation: %v", rank, res.err)
				}
			}
			if failed == 0 {
				t.Fatal("every role completed despite an unrecoverable fault")
			}
			// Timeout-not-deadlock, quantified: the whole exchange must
			// unwind within a few step deadlines, not sit on the 60s
			// watchdog.
			if elapsed > 10*time.Second {
				t.Errorf("chaos unwind took %s; step deadline is 500ms", elapsed)
			}
		})
	}
}
