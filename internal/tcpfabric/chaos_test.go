package tcpfabric

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inceptionn/internal/bitio"
	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/ring"
)

func chaosInputs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, dim)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64() * 0.01)
		}
	}
	return inputs
}

// nodeError waits for node id's first reported link anomaly.
func nodeError(t *testing.T, c *Cluster, id int) error {
	t.Helper()
	select {
	case err := <-c.Node(id).Errors():
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("node %d reported no error", id)
		return nil
	}
}

// badFrame checks that err is the fabric's fail-closed error for a frame
// on hop, wrapping fault.ErrBadFrame and saying what.
func badFrame(t *testing.T, err error, hop, what string) {
	t.Helper()
	if !errors.Is(err, fault.ErrBadFrame) || !strings.Contains(err.Error(), hop) || !strings.Contains(err.Error(), what) {
		t.Fatalf("err = %v, want one naming %q and %q and wrapping fault.ErrBadFrame", err, hop, what)
	}
}

// ringFailsClosed runs a 4-node ring AllReduce over a cluster whose chaos
// spoils one frame of link 0→1 mid-stream. Every node must return within
// a few step deadlines, at least one with an error and none with a bare
// cancellation; the error node 1's reader reports is returned.
func ringFailsClosed(t *testing.T, c *Cluster, dim int, tos uint8, finalize func([]float32)) error {
	t.Helper()
	n := c.N()
	inputs := chaosInputs(n, dim, 1)
	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := append([]float32(nil), inputs[id]...)
			errs[id] = ring.AllReduceCtx(context.Background(), c.Node(id), g, tos, finalize, ring.Options{StepTimeout: time.Second})
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("ring AllReduce over a faulted link hung")
	}
	failed := 0
	for id, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if errors.Is(err, context.Canceled) {
			t.Errorf("node %d failed with a bare cancellation: %v", id, err)
		}
	}
	if failed == 0 {
		t.Fatal("ring AllReduce succeeded over a faulted link")
	}
	return nodeError(t, c, 1)
}

// TestChaosRingAllReduceCompressed: one bit of a compressed frame flips on
// the wire mid-stream. The CRC catches it and the ring fails closed with
// an error naming the hop; nothing retransmits it.
func TestChaosRingAllReduceCompressed(t *testing.T) {
	const n = 4
	bound := fpcodec.MustBound(10)
	proc := comm.CodecProcessor{Bound: bound}
	finalize := func(b []float32) {
		out, _ := proc.Process(b, comm.ToSCompress)
		copy(b, out)
	}
	c, err := NewClusterWithOptions(n, ClusterOptions{
		Compress: true,
		Bound:    bound,
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:  42,
			Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {CorruptRate: 1, From: 2, Until: 3}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	badFrame(t, ringFailsClosed(t, c, 1000, comm.ToSCompress, finalize), "0->1 seq 2", "CRC mismatch")
}

// TestChaosRingAllReduceRaw: a raw frame is dropped mid-stream. The next
// frame on the link arrives one sequence number ahead, and the ring fails
// closed on the gap.
func TestChaosRingAllReduceRaw(t *testing.T) {
	const n = 4
	c, err := NewClusterWithOptions(n, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:  7,
			Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {DropRate: 1, From: 2, Until: 3}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	badFrame(t, ringFailsClosed(t, c, 500, 0, nil), "0->1 seq 3", "sequence gap, want seq 2")
}

// TestDecompressionFailureFailsClosed forces an engine glitch: the
// compressed body is truncated before the CRC is computed, so the frame
// passes the integrity check but fails to decode. The receiver reports a
// bad frame that also wraps the codec's short read, and delivers nothing.
func TestDecompressionFailureFailsClosed(t *testing.T) {
	c, err := NewClusterWithOptions(2, ClusterOptions{
		Compress: true,
		Bound:    fpcodec.MustBound(10),
		Chaos: fault.NewInjector(2, fault.Config{
			Seed:  5,
			Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {TruncateRate: 1, Until: 1}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]float32, 2048)
	rng := rand.New(rand.NewSource(3))
	for i := range payload {
		payload[i] = float32(rng.NormFloat64())
	}
	if err := c.Node(0).SendCtx(context.Background(), 1, payload, comm.ToSCompress, 1); err != nil {
		t.Fatal(err)
	}
	err = nodeError(t, c, 1)
	badFrame(t, err, "0->1 seq 0", "bits")
	if !errors.Is(err, bitio.ErrShortRead) {
		t.Errorf("err = %v, want one wrapping bitio.ErrShortRead", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if got, err := c.Node(1).RecvCtx(ctx, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("recv after a bad frame = %d values, %v; want nothing before the deadline", len(got), err)
	}
}

// TestPermanentPartitionTimesOut: a blackholed link must turn into a
// deadline error on the starved receiver, not a hang.
func TestPermanentPartitionTimesOut(t *testing.T) {
	const n = 4
	c, err := NewClusterWithOptions(n, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:  1,
			Links: map[fault.Link]fault.LinkFaults{{Src: 1, Dst: 2}: fault.Partition(0)},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	inputs := chaosInputs(n, 64, 4)
	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := append([]float32(nil), inputs[id]...)
			errs[id] = ring.AllReduceCtx(ctx, c.Node(id), g, 0, nil, ring.Options{StepTimeout: time.Second})
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("partitioned ring AllReduce hung")
	}
	// Node 2 receives from node 1 over the blackholed link: it must see a
	// timeout, and the stall must cascade into errors elsewhere too.
	if errs[2] == nil || !errors.Is(errs[2], context.DeadlineExceeded) {
		t.Errorf("node 2: want deadline exceeded, got %v", errs[2])
	}
	if c.Node(2).LinkStats(1).Timeouts.Load() == 0 {
		t.Error("timeout not recorded on the partitioned link's stats")
	}
}

// TestStragglerLinkObservable: a sender that runs late must show up in
// the receiver's LinkStats wait counters.
func TestStragglerLinkObservable(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		time.Sleep(40 * time.Millisecond)
		_ = c.Node(0).SendCtx(ctx, 1, []float32{1, 2}, 0, 0)
	}()
	if _, err := c.Node(1).RecvCtx(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if w := c.Node(1).LinkStats(0).MaxRecvWaitNanos.Load(); w < (25 * time.Millisecond).Nanoseconds() {
		t.Errorf("straggler peak wait %v, want >= 25ms", time.Duration(w))
	}
}

// TestTornFrameSurfacesError: garbage on the wire must surface on the
// receiver's error channel, never panic it, and be distinguishable from a
// clean close.
func TestTornFrameSurfacesError(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Bypass the protocol: write a full header's worth of garbage straight
	// onto node 0's socket to node 1.
	garbage := make([]byte, frameHeaderLen)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	if _, err := c.Node(0).conns[1].Write(garbage); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-c.Node(1).Errors():
		if err == nil {
			t.Fatal("nil error on anomaly channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bad magic did not surface on the error channel")
	}
}

func TestTornBodySurfacesError(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A valid data header promising 400 body bytes, then the connection
	// dies mid-frame.
	h := encodeHeader(frameHeader{kind: kindData, seq: 0, tag: 1, count: 100, payloadLen: 400})
	conn := c.Node(0).conns[1]
	if _, err := conn.Write(h[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-c.Node(1).Errors():
		if err == nil {
			t.Fatal("nil error on anomaly channel")
		}
		// The error says how far the body got: 10 of the promised 400.
		if !strings.Contains(err.Error(), "(10/400B)") {
			t.Fatalf("torn-body error = %q, want the bytes read as (10/400B)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("torn body did not surface on the error channel")
	}
}

func TestCleanCloseIsSilent(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-c.Node(0).Errors():
		t.Fatalf("clean close surfaced %v", err)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	c, err := NewCluster(3, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Close() }()
	}
	wg.Wait()
	c.Close() // and once more after the dust settles
}

// TestCloseUnblocksParkedSender: a sender parked inside a socket write —
// its peer has stopped reading and the kernel buffers are full — returns
// once the cluster closes, with an error graded as a closed transport.
func TestCloseUnblocksParkedSender(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's reader takes the in-link lock for every frame it decodes:
	// holding it stops the reader after its first frame.
	stalled := &c.Node(1).in[0].mu
	stalled.Lock()
	defer stalled.Unlock()

	payload := make([]float32, 1<<20) // 4 MB frames: a few fill the buffers
	var sends atomic.Int64
	sent := make(chan error, 1)
	go func() {
		for {
			if err := c.Node(0).SendCtx(context.Background(), 1, payload, 0, 0); err != nil {
				sent <- err
				return
			}
			sends.Add(1)
		}
	}()
	// Parked: at least one frame went out, and no more for 200 ms.
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(200 * time.Millisecond)
		n := sends.Load()
		if n > 0 && n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender never parked: %d frames sent", n)
		}
		last = n
	}
	c.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, fault.ErrClosed) {
			t.Fatalf("err = %v, want one wrapping fault.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still parked after Close")
	}
}

// TestNodeCrashSchedule: a node past its crash budget fails its own sends
// and the survivors' deadlines fire.
func TestNodeCrashSchedule(t *testing.T) {
	const n = 3
	c, err := NewClusterWithOptions(n, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:       1,
			CrashAfter: map[int]uint64{1: 1},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := []float32{1, 2, 3}
			errs[id] = ring.AllReduceCtx(ctx, c.Node(id), g, 0, nil, ring.Options{})
		}(id)
	}
	wg.Wait()
	if !errors.Is(errs[1], fault.ErrCrashed) {
		t.Errorf("crashed node: want ErrCrashed, got %v", errs[1])
	}
}

// TestCleanLinkNeverRetransmits: TCP is the link's one reliability
// protocol, so every frame crosses the socket exactly once, however slow
// its receiver. Four nodes pass multi-MB payloads around a ring, each
// receiver sleeping before it receives, so every receive finds its frame
// still being encoded, written or read. Every payload must arrive exactly,
// and each node's socket bytes must be one header and one raw body per
// send.
func TestCleanLinkNeverRetransmits(t *testing.T) {
	const n, dim, rounds = 4, 1 << 20, 4
	c, err := NewCluster(n, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	inputs := chaosInputs(n, dim, 11)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nd, left, right := c.Node(id), (id+n-1)%n, (id+1)%n
			for r := 0; r < rounds; r++ {
				sent := make(chan error, 1)
				go func() { sent <- nd.SendCtx(ctx, right, inputs[id], 0, r) }()
				time.Sleep(3 * time.Millisecond)
				got, err := nd.RecvCtx(ctx, left, r)
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range inputs[left] {
					if got[i] != v {
						t.Errorf("node %d round %d elem %d: %g, want %g", id, r, i, got[i], v)
						return
					}
				}
				if err := <-sent; err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if got, want := c.Node(id).SentBytes(), int64(rounds*(frameHeaderLen+4*dim)); got != want {
			t.Errorf("node %d wrote %d bytes, want %d: one frame per send", id, got, want)
		}
	}
}
