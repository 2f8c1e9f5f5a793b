package tcpfabric

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/ring"
)

// runChaosRing executes a 4-node ring AllReduce over the cluster and
// returns every node's result vector, failing the test on any error.
func runChaosRing(t *testing.T, c *Cluster, inputs [][]float32, tos uint8, finalize func([]float32), timeout time.Duration) [][]float32 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n := c.N()
	out := make([][]float32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := append([]float32(nil), inputs[id]...)
			errs[id] = ring.AllReduceCtx(ctx, c.Node(id), g, tos, finalize, ring.Options{})
			out[id] = g
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	return out
}

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

// TestChaosRingAllReduceCompressed is the acceptance chaos test: a 4-node
// TCP ring AllReduce with compression enabled, under 5% injected frame
// corruption plus 5% drops, must complete with the exact sums a
// fault-free run produces — the retransmit path repairs every anomaly
// bit-exactly.
func TestChaosRingAllReduceCompressed(t *testing.T) {
	const n, dim = 4, 1000
	bound := fpcodec.MustBound(10)
	inputs := chaosInputs(n, dim, 1)
	proc := comm.CodecProcessor{Bound: bound}
	finalize := func(b []float32) {
		out, _ := proc.Process(b, comm.ToSCompress)
		copy(b, out)
	}

	reference, err := NewCluster(n, true, bound)
	if err != nil {
		t.Fatal(err)
	}
	want := runChaosRing(t, reference, inputs, comm.ToSCompress, finalize, 30*time.Second)
	reference.Close()

	chaotic, err := NewClusterWithOptions(n, ClusterOptions{
		Compress: true,
		Bound:    bound,
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:    42,
			Default: fault.LinkFaults{DropRate: 0.05, CorruptRate: 0.05},
		}),
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaotic.Close()
	got := runChaosRing(t, chaotic, inputs, comm.ToSCompress, finalize, 60*time.Second)

	for node := range got {
		for j := range got[node] {
			if got[node][j] != want[node][j] {
				t.Fatalf("node %d elem %d: chaos run %g != fault-free %g",
					node, j, got[node][j], want[node][j])
			}
		}
	}
	var retransmits, nacks, raw int64
	for id := 0; id < n; id++ {
		for p := 0; p < n; p++ {
			retransmits += chaotic.Node(id).LinkStats(p).Retransmits.Load()
			nacks += chaotic.Node(id).LinkStats(p).Nacks.Load()
			raw += chaotic.Node(id).LinkStats(p).RawBytes.Load()
		}
	}
	// Pre-codec bytes count once per send: the ring's 2(n−1) blocks per
	// node, however many times the ARQ put each on the wire.
	if want := int64(2 * (n - 1) * 4 * dim); raw != want {
		t.Errorf("RawBytes = %d over all links, want exactly %d", raw, want)
	}
	if retransmits == 0 {
		t.Error("retransmit path was not exercised at 5%+5% fault rates")
	}
	if nacks == 0 {
		t.Error("no NACKs issued under injected corruption")
	}
}

// TestChaosRingAllReduceRaw repeats the chaos run without compression:
// raw frames must also survive drops and corruption bit-exactly.
func TestChaosRingAllReduceRaw(t *testing.T) {
	const n, dim = 4, 500
	bound := fpcodec.MustBound(10)
	inputs := chaosInputs(n, dim, 2)

	reference, err := NewCluster(n, false, bound)
	if err != nil {
		t.Fatal(err)
	}
	want := runChaosRing(t, reference, inputs, 0, nil, 30*time.Second)
	reference.Close()

	chaotic, err := NewClusterWithOptions(n, ClusterOptions{
		Bound: bound,
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:    7,
			Default: fault.LinkFaults{DropRate: 0.05, CorruptRate: 0.05, DupRate: 0.03},
		}),
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaotic.Close()
	got := runChaosRing(t, chaotic, inputs, 0, nil, 60*time.Second)
	for node := range got {
		for j := range got[node] {
			if got[node][j] != want[node][j] {
				t.Fatalf("node %d elem %d diverged under chaos", node, j)
			}
		}
	}
}

// TestDecompressionFailureFallsBackToRaw forces an engine glitch: the
// compressed body is truncated before the CRC is computed, so the frame
// passes the integrity check but fails to decode. The receiver must
// re-request it raw, deliver the exact payload, and count the
// degradation.
func TestDecompressionFailureFallsBackToRaw(t *testing.T) {
	bound := fpcodec.MustBound(10)
	c, err := NewClusterWithOptions(2, ClusterOptions{
		Compress: true,
		Bound:    bound,
		Chaos: fault.NewInjector(2, fault.Config{
			Seed: 5,
			Links: map[fault.Link]fault.LinkFaults{
				// Glitch only the first transmission on 0→1; the raw
				// retransmission is exempt (truncation targets compressed
				// bodies, and the schedule window ends at seq 1).
				{Src: 0, Dst: 1}: {TruncateRate: 1, Until: 1},
			},
		}),
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond},
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		_ = c.Node(0).SendCtx(ctx, 1, payload, comm.ToSCompress, 1)
	}()
	got, err := c.Node(1).RecvCtx(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The raw fallback ships the original IEEE-754 bits: exact.
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("elem %d: %g != %g (raw fallback must be exact)", i, got[i], payload[i])
		}
	}
	if d := c.Node(1).LinkStats(0).Degraded.Load(); d != 1 {
		t.Errorf("per-link degraded counter = %d, want 1", d)
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
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond, MaxAttempts: 4},
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

// TestStragglerLinkObservable: a link with injected delay must show up in
// the receiver's LinkStats wait counters.
func TestStragglerLinkObservable(t *testing.T) {
	c, err := NewClusterWithOptions(2, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(2, fault.Config{
			Seed: 1,
			Links: map[fault.Link]fault.LinkFaults{
				{Src: 0, Dst: 1}: {DelayRate: 1, Delay: 40 * time.Millisecond},
			},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { _ = c.Node(0).SendCtx(ctx, 1, []float32{1, 2}, 0, 0) }()
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

// TestCloseUnblocksParkedSender: a sender parked inside the fabric — here
// on a delay the link injects before every transmission — returns once the
// cluster closes, with an error graded as a closed transport.
func TestCloseUnblocksParkedSender(t *testing.T) {
	c, err := NewClusterWithOptions(2, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(2, fault.Config{
			Seed:  1,
			Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {DelayRate: 1, Delay: time.Hour}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- c.Node(0).SendCtx(context.Background(), 1, []float32{1}, 0, 0) }()
	time.Sleep(20 * time.Millisecond) // let the sender park
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
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond, MaxAttempts: 3},
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

// TestCleanLinkNeverRetransmits: on a link with no faults a stall probe is
// a question TCP already answers, so nothing is ever sent twice. Four
// nodes pass multi-MB payloads around a ring with a 1 ms probe interval,
// each receiver sleeping through several intervals before it receives, so
// every receive finds its frame still being encoded, written or read and
// probes for it. Every payload must arrive exactly, with zero
// retransmissions on every link.
func TestCleanLinkNeverRetransmits(t *testing.T) {
	const n, dim, rounds = 4, 1 << 20, 4
	c, err := NewClusterWithOptions(n, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Retry: RetryPolicy{ProbeRTO: time.Millisecond},
	})
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
		for peer := 0; peer < n; peer++ {
			if peer == id {
				continue
			}
			if r := c.Node(id).LinkStats(peer).Retransmits.Load(); r != 0 {
				t.Errorf("link %d->%d: %d retransmits on a clean link", id, peer, r)
			}
		}
	}
}
