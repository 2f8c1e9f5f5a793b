package fault

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// wrapFabric builds one chaos wrapper per node over a fresh in-process
// fabric.
func wrapFabric(n int, cfg Config, opts Options) []*Peer {
	f := comm.NewFabric(n, nil)
	inj := NewInjector(n, cfg)
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = Wrap(f.Endpoint(i), inj, opts)
	}
	return peers
}

func closeAll(peers []*Peer) {
	for _, p := range peers {
		p.Close()
	}
}

func TestReliableDeliveryUnderChaos(t *testing.T) {
	peers := wrapFabric(2, Config{
		Seed: 11,
		Default: LinkFaults{
			DropRate: 0.1, CorruptRate: 0.1, DupRate: 0.1,
			DelayRate: 0.05, Delay: time.Millisecond,
		},
	}, Options{RTO: 5 * time.Millisecond})
	defer closeAll(peers)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const rounds = 60
	errCh := make(chan error, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			payload := []float32{float32(r), float32(r) * 0.5, -float32(r)}
			if err := peers[0].SendCtx(ctx, 1, payload, 0, r); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for r := 0; r < rounds; r++ {
		got, err := peers[1].RecvCtx(ctx, 0, r)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if got[0] != float32(r) || got[1] != float32(r)*0.5 || got[2] != -float32(r) {
			t.Fatalf("round %d: corrupted delivery %v", r, got)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// The chaos rates guarantee recovery work happened over 60 frames.
	if peers[0].LinkStats(1).Retransmits.Load() == 0 && peers[1].LinkStats(0).Nacks.Load() == 0 {
		t.Error("no retransmissions or NACKs recorded under 10% drop + 10% corruption")
	}
}

// TestRingAllReduceUnderChaos is the satellite requirement: the ring
// exchange over a lossy fabric (drops, corruption, duplication, delay at
// 1–10% rates) must still converge to the bitwise-correct sum on every
// node.
func TestRingAllReduceUnderChaos(t *testing.T) {
	const n = 4
	peers := wrapFabric(n, Config{
		Seed: 23,
		Default: LinkFaults{
			DropRate: 0.05, CorruptRate: 0.05, DupRate: 0.03,
			DelayRate: 0.01, Delay: 2 * time.Millisecond,
		},
	}, Options{RTO: 5 * time.Millisecond})
	defer closeAll(peers)

	rng := rand.New(rand.NewSource(9))
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, 400)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64())
		}
	}
	// Reference: the same exchange on a pristine fabric (float32 addition
	// order is fixed by the algorithm, so results must match bitwise).
	ref := runRing(t, wrapFabric(n, Config{}, Options{}), inputs)
	got := runRing(t, peers, inputs)
	for node := range got {
		for j := range got[node] {
			if got[node][j] != ref[node][j] {
				t.Fatalf("node %d elem %d: %g != reference %g", node, j, got[node][j], ref[node][j])
			}
		}
	}
}

func runRing(t *testing.T, peers []*Peer, inputs [][]float32) [][]float32 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make([][]float32, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for id := range peers {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := append([]float32(nil), inputs[id]...)
			errs[id] = ring.AllReduceCtx(ctx, peers[id], g, 0, nil, ring.Options{})
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

// TestPartitionReturnsTimeout is the satellite requirement: a permanent
// partition must surface as a timeout error, never a hang.
func TestPartitionReturnsTimeout(t *testing.T) {
	const n = 4
	peers := wrapFabric(n, Config{
		Seed:  1,
		Links: map[Link]LinkFaults{{0, 1}: Partition(0)},
	}, Options{RTO: 5 * time.Millisecond, MaxAttempts: 4})
	defer closeAll(peers)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = []float32{1, 2, 3, 4}
	}
	errs := make([]error, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := append([]float32(nil), inputs[id]...)
			errs[id] = ring.AllReduceCtx(ctx, peers[id], g, 0, nil, ring.Options{StepTimeout: time.Second})
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("partitioned AllReduce hung")
	}
	// Node 0 sends into the blackhole and must exhaust its retries; its
	// downstream neighbour starves and must hit its deadline.
	if errs[0] == nil || !errors.Is(errs[0], ErrMaxRetries) {
		t.Errorf("node 0: want ErrMaxRetries, got %v", errs[0])
	}
	if errs[1] == nil || !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Errorf("node 1: want deadline error, got %v", errs[1])
	}
}

// TestCrashedNodeSurfacesError checks the crash schedule: the crashed
// node's own operations fail with ErrCrashed and the survivors' deadline
// fires instead of hanging.
func TestCrashedNodeSurfacesError(t *testing.T) {
	const n = 3
	peers := wrapFabric(n, Config{
		Seed:       1,
		CrashAfter: map[int]uint64{2: 1},
	}, Options{RTO: 5 * time.Millisecond, MaxAttempts: 3})
	defer closeAll(peers)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := []float32{1, 2, 3}
			errs[id] = ring.AllReduceCtx(ctx, peers[id], g, 0, nil, ring.Options{})
		}(id)
	}
	wg.Wait()
	if !errors.Is(errs[2], ErrCrashed) {
		t.Errorf("crashed node: want ErrCrashed, got %v", errs[2])
	}
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed < 2 {
		t.Errorf("only %d nodes observed the crash", failed)
	}
}

func TestStragglerStatsSurface(t *testing.T) {
	peers := wrapFabric(2, Config{
		Seed:  1,
		Links: map[Link]LinkFaults{{0, 1}: {DelayRate: 1, Delay: 30 * time.Millisecond}},
	}, Options{RTO: 200 * time.Millisecond})
	defer closeAll(peers)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		_ = peers[0].SendCtx(ctx, 1, []float32{1}, 0, 0)
	}()
	if _, err := peers[1].RecvCtx(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if w := peers[1].LinkStats(0).MaxRecvWaitNanos.Load(); w < (20 * time.Millisecond).Nanoseconds() {
		t.Errorf("straggler link peak recv wait %v, want >= 20ms", time.Duration(w))
	}
}

func TestTagMismatchIsError(t *testing.T) {
	peers := wrapFabric(2, Config{}, Options{})
	defer closeAll(peers)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	go func() { _ = peers[0].SendCtx(ctx, 1, []float32{1}, 0, 5) }()
	if _, err := peers[1].RecvCtx(ctx, 0, 6); err == nil {
		t.Fatal("tag mismatch did not error")
	}
}

// TestCloseUnblocksSenderOnFullStream: the wrapper puts frames on the raw
// stream under its own context, so a sender parked on a full stream (the
// far node is gone and nothing drains it) returns when the wrapper closes.
func TestCloseUnblocksSenderOnFullStream(t *testing.T) {
	f := comm.NewFabric(2, nil)
	raw := f.Endpoint(0)
	fill, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	for raw.SendCtx(fill, 1, nil, 0, 0) == nil {
		// until the unread 0→1 stream is full
	}
	p := Wrap(raw, nil, Options{})
	sent := make(chan error, 1)
	go func() { sent <- p.SendCtx(context.Background(), 1, []float32{1}, 0, 0) }()
	time.Sleep(20 * time.Millisecond) // let the sender park
	p.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still parked on the full stream after Close")
	}
}
