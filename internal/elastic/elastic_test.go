package elastic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

func TestEvictionAdvancesEpochAndCancelsContext(t *testing.T) {
	c := NewCoordinator(4, Config{})
	defer c.Close()

	v := c.View()
	if v.Epoch != 0 || len(v.Members) != 4 {
		t.Fatalf("initial view = %+v", v)
	}
	ctx0 := c.EpochContext(0)
	if ctx0.Err() != nil {
		t.Fatal("fresh epoch context already cancelled")
	}

	cause := errors.New("injected crash")
	c.ReportDead(2, cause)

	v = c.View()
	if v.Epoch != 1 {
		t.Fatalf("epoch after eviction = %d, want 1", v.Epoch)
	}
	want := []int{0, 1, 3}
	if len(v.Members) != 3 || v.Members[0] != 0 || v.Members[1] != 1 || v.Members[2] != 3 {
		t.Fatalf("members after eviction = %v, want %v", v.Members, want)
	}
	if v.Contains(2) {
		t.Fatal("evicted node still in view")
	}
	if v.Leader() != 0 {
		t.Fatalf("leader = %d, want 0", v.Leader())
	}
	if ctx0.Err() == nil {
		t.Fatal("old epoch context not cancelled by eviction")
	}
	if c.EpochContext(0).Err() == nil {
		t.Fatal("stale EpochContext not pre-cancelled")
	}
	if c.EpochContext(1).Err() != nil {
		t.Fatal("current epoch context cancelled")
	}
	if got := c.DeathCause(2); !errors.Is(got, cause) {
		t.Fatalf("death cause = %v, want %v", got, cause)
	}

	// Double eviction is a no-op.
	c.ReportDead(2, errors.New("again"))
	if got := c.View().Epoch; got != 1 {
		t.Fatalf("epoch after duplicate eviction = %d, want 1", got)
	}
}

func TestHeartbeatDetectorEvictsSilentNode(t *testing.T) {
	c := NewCoordinator(3, Config{SuspectAfter: 50 * time.Millisecond, ScanEvery: 5 * time.Millisecond})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Nodes 0 and 1 beat continuously; node 2 beats once and goes silent.
	c.Beat(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range []int{0, 1} {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					c.Beat(id)
				}
			}
		}(id)
	}

	v, err := c.AwaitEpoch(ctx, -1, 0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("AwaitEpoch: %v", err)
	}
	if v.Contains(2) || !v.Contains(0) || !v.Contains(1) {
		t.Fatalf("view after staleness eviction = %v", v.Members)
	}
	if cause := c.DeathCause(2); cause == nil || !strings.Contains(cause.Error(), "heartbeat stale") {
		t.Fatalf("death cause = %v, want heartbeat staleness", cause)
	}
}

func TestDetectorIgnoresUnstartedNodes(t *testing.T) {
	// A node that never beat is not evicted: startup grace.
	c := NewCoordinator(2, Config{SuspectAfter: 20 * time.Millisecond, ScanEvery: 2 * time.Millisecond})
	defer c.Close()
	time.Sleep(80 * time.Millisecond)
	if v := c.View(); v.Epoch != 0 {
		t.Fatalf("unstarted nodes evicted: view %+v", v)
	}
}

// TestDepartAdvancesEpochWithoutKillingExchanges covers the graceful-exit
// half of reconfiguration: a departure must unblock members waiting at a
// barrier (epoch bump + ErrEpochChanged) exactly like an eviction, but —
// unlike an eviction — must neither record a death cause nor cancel the
// superseded epoch context, because a departed member owes no further
// traffic and siblings' in-flight collectives can still complete.
func TestDepartAdvancesEpochWithoutKillingExchanges(t *testing.T) {
	c := NewCoordinator(3, Config{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	ctx0 := c.EpochContext(0)
	got := make(chan error, 2)
	for _, id := range []int{0, 1} {
		go func(id int) {
			_, err := c.Gather(ctx, id, 0, "recover", Item{Iter: int64(id)})
			got <- err
		}(id)
	}
	time.Sleep(10 * time.Millisecond)
	c.Depart(2) // node 2 finished its run and leaves
	for i := 0; i < 2; i++ {
		if err := <-got; !errors.Is(err, ErrEpochChanged) {
			t.Fatalf("gather error after departure = %v, want ErrEpochChanged", err)
		}
	}
	v := c.View()
	if v.Epoch != 1 || v.Contains(2) || len(v.Members) != 2 {
		t.Fatalf("view after departure = %+v", v)
	}
	if cause := c.DeathCause(2); cause != nil {
		t.Fatalf("departure recorded a death cause: %v", cause)
	}
	if ctx0.Err() != nil {
		t.Fatal("departure cancelled the epoch-0 context; in-flight exchanges would abort")
	}
	// The survivors re-rendezvous under the shrunken view.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, id := range []int{0, 1} {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			_, errs[i] = c.Gather(ctx, id, 1, "recover", Item{Iter: int64(id)})
		}(i, id)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("post-departure gather: %v %v", errs[0], errs[1])
	}
	// A death, by contrast, still cancels promptly.
	c.ReportDead(1, errors.New("boom"))
	if ctx0.Err() == nil {
		t.Fatal("eviction did not cancel the live epoch context")
	}
	// Departing the last member empties the view.
	c.Depart(0)
	if v := c.View(); len(v.Members) != 0 || v.Leader() != -1 {
		t.Fatalf("view after all departures = %+v", v)
	}
	// Departing an unknown or already-gone node is a no-op.
	before := c.View().Epoch
	c.Depart(0)
	c.Depart(7)
	if got := c.View().Epoch; got != before {
		t.Fatalf("no-op departure advanced the epoch: %d -> %d", before, got)
	}
}

// TestJoinAfterDepart covers membership churn in both directions: a depart
// bumps the epoch for the survivors, and a join splices the node back in
// at the next epoch.
func TestJoinAfterDepart(t *testing.T) {
	c := NewCoordinator(3, Config{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	c.Depart(2)
	v, err := c.AwaitEpoch(ctx, 0, 0)
	if err != nil {
		t.Fatalf("await epoch after depart: %v", err)
	}
	if v.Epoch != 1 || v.Contains(2) {
		t.Fatalf("post-depart view = %+v, want epoch 1 without node 2", v)
	}
	if v.Leader() != 0 {
		t.Fatalf("post-depart leader = %d, want 0", v.Leader())
	}

	jv, err := c.Join(2)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if jv.Epoch != 2 || !jv.Contains(2) {
		t.Fatalf("post-join view = %+v, want epoch 2 containing node 2", jv)
	}
	if got := c.View(); got.Epoch != 2 || len(got.Members) != 3 {
		t.Fatalf("survivor view after join = %+v", got)
	}
}

// TestProposeHaltIsSetOnce: no proposal reads as "no halt" (-1), never as
// "halt at iteration 0", and the first proposal fixes the boundary.
func TestProposeHaltIsSetOnce(t *testing.T) {
	c := NewCoordinator(2, Config{})
	defer c.Close()
	if h := c.HaltIter(); h != -1 {
		t.Errorf("HaltIter before any proposal = %d, want -1", h)
	}
	if h := c.ProposeHalt(41); h != 42 {
		t.Errorf("ProposeHalt(41) = %d, want 42", h)
	}
	if h := c.ProposeHalt(50); h != 42 {
		t.Errorf("a later ProposeHalt(50) = %d, want the first proposal's 42", h)
	}
	if h := c.HaltIter(); h != 42 {
		t.Errorf("HaltIter after proposals = %d, want 42", h)
	}
}

// TestGatherBeatsWhileBlocked pins the liveness contract of the barrier
// primitives: a member parked inside Gather far longer than SuspectAfter
// must keep heartbeating on its own behalf, or the detector would evict
// healthy members whenever a checkpoint or recovery barrier outlasts the
// staleness limit (and, since barriers block everyone, cascade).
func TestGatherBeatsWhileBlocked(t *testing.T) {
	c := NewCoordinator(2, Config{SuspectAfter: 40 * time.Millisecond, ScanEvery: 4 * time.Millisecond})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	c.Beat(0)
	c.Beat(1)
	res := make(chan error, 1)
	go func() {
		_, err := c.Gather(ctx, 0, 0, "ckpt", Item{})
		res <- err
	}()
	// Node 1 stays healthy (beating) but takes 5x SuspectAfter to reach
	// the barrier; node 0 is blocked inside Gather the whole time.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		c.Beat(1)
		time.Sleep(4 * time.Millisecond)
	}
	if _, err := c.Gather(ctx, 1, 0, "ckpt", Item{}); err != nil {
		t.Fatalf("late member's gather: %v", err)
	}
	if err := <-res; err != nil {
		t.Fatalf("blocked member's gather: %v (evicted while waiting?)", err)
	}
	if v := c.View(); v.Epoch != 0 {
		t.Fatalf("epoch advanced to %d: a blocked-but-live member was evicted", v.Epoch)
	}
}

func TestGatherRendezvous(t *testing.T) {
	c := NewCoordinator(3, Config{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	results := make([]map[int]Item, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = c.Gather(ctx, id, 0, "iter@0", Item{Iter: int64(10 + id)})
		}(id)
	}
	wg.Wait()
	for id := 0; id < 3; id++ {
		if errs[id] != nil {
			t.Fatalf("gather on %d: %v", id, errs[id])
		}
		if len(results[id]) != 3 {
			t.Fatalf("gather on %d returned %d values", id, len(results[id]))
		}
	}
}

func TestGatherAbortsOnEpochChange(t *testing.T) {
	c := NewCoordinator(3, Config{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got := make(chan error, 2)
	for _, id := range []int{0, 1} {
		go func(id int) {
			_, err := c.Gather(ctx, id, 0, "r", Item{Iter: int64(id)})
			got <- err
		}(id)
	}
	// Node 2 never arrives; it dies instead.
	time.Sleep(10 * time.Millisecond)
	c.ReportDead(2, errors.New("boom"))
	for i := 0; i < 2; i++ {
		if err := <-got; !errors.Is(err, ErrEpochChanged) {
			t.Fatalf("gather error = %v, want ErrEpochChanged", err)
		}
	}
	// Under the new epoch the two survivors can rendezvous.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []int{0, 1} {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			_, errs[i] = c.Gather(ctx, id, 1, "r", Item{Iter: int64(id)})
		}(i, id)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("post-eviction gather: %v %v", errs[0], errs[1])
	}
	// Stale-epoch and evicted callers are rejected immediately.
	if _, err := c.Gather(ctx, 0, 0, "r", Item{}); !errors.Is(err, ErrEpochChanged) {
		t.Fatalf("stale-epoch gather error = %v", err)
	}
	if _, err := c.Gather(ctx, 2, 1, "r", Item{}); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted gather error = %v", err)
	}
}

func TestWatchErrorsClassifiesEvidence(t *testing.T) {
	c := NewCoordinator(2, Config{})
	defer c.Close()
	// The two grades a transport-error watcher sorts its feed into: soft
	// evidence is logged, hard evidence evicts.
	c.ReportAnomaly(1, fmt.Errorf("soft: torn frame"))
	c.ReportDead(1, fmt.Errorf("node down: %w", errors.New("crashed")))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := c.AwaitEpoch(ctx, -1, 0)
	if err != nil {
		t.Fatalf("AwaitEpoch: %v", err)
	}
	if v.Contains(1) {
		t.Fatal("fatal transport error did not evict")
	}
	anoms := c.Anomalies()
	if len(anoms) != 1 || anoms[0].Node != 1 {
		t.Fatalf("anomaly log = %+v, want one soft entry for node 1", anoms)
	}
}

// send puts one frame on an in-process link, failing the test on error.
func send(t *testing.T, e *comm.Endpoint, dst int, payload []float32, tag int) {
	t.Helper()
	if err := e.SendCtx(context.Background(), dst, payload, 0, tag); err != nil {
		t.Fatal(err)
	}
}

func TestPeerDiscardsStaleEpochFrames(t *testing.T) {
	f := comm.NewFabric(2, nil)
	sender, receiver := f.Endpoint(0), NewPeer(f.Endpoint(1))
	ctx := context.Background()

	// Residue from an aborted epoch-0 exchange, then the epoch-1 frame.
	send(t, sender, 1, []float32{1}, TagBase(0)+1001)
	send(t, sender, 1, []float32{2}, TagBase(0)+2003)
	send(t, sender, 1, []float32{42}, TagBase(1)+1001)

	got, err := receiver.RecvCtx(ctx, 0, TagBase(1)+1001)
	if err != nil {
		t.Fatalf("RecvCtx: %v", err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("payload = %v, want [42]", got)
	}
	if receiver.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", receiver.Dropped())
	}

	// A same-epoch tag mismatch is a protocol error, not a discard.
	send(t, sender, 1, []float32{7}, TagBase(1)+2000)
	if _, err := receiver.RecvCtx(ctx, 0, TagBase(1)+1002); err == nil {
		t.Fatal("same-epoch tag mismatch not reported")
	}
}

func TestReconfiguredRingOverEpochTags(t *testing.T) {
	// Survivors {0,1,3} of a 4-node fabric replay an all-reduce under
	// epoch 1 tags while stale epoch-0 residue sits in their links.
	f := comm.NewFabric(4, nil)
	members := []int{0, 1, 3}
	peers := map[int]*Peer{}
	for _, id := range members {
		peers[id] = NewPeer(f.Endpoint(id))
	}
	// Stale epoch-0 frames on every ring link of the new membership.
	send(t, f.Endpoint(3), 0, []float32{9, 9, 9}, TagBase(0)+1001)
	send(t, f.Endpoint(0), 1, []float32{9, 9, 9}, TagBase(0)+1001)
	send(t, f.Endpoint(1), 3, []float32{9, 9, 9}, TagBase(0)+1002)

	opt := ring.Options{TagOffset: TagBase(1), StepTimeout: 5 * time.Second}
	vecs := map[int][]float32{
		0: {1, 2, 3},
		1: {10, 20, 30},
		3: {100, 200, 300},
	}
	var wg sync.WaitGroup
	errs := map[int]error{}
	var mu sync.Mutex
	for _, id := range members {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := ring.AllReduceGroupCtx(context.Background(), peers[id], members, vecs[id], 0, nil, opt)
			mu.Lock()
			errs[id] = err
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	want := []float32{111, 222, 333}
	for _, id := range members {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		for i, v := range vecs[id] {
			if v != want[i] {
				t.Fatalf("node %d result %v, want %v", id, vecs[id], want)
			}
		}
	}
	total := peers[0].Dropped() + peers[1].Dropped() + peers[3].Dropped()
	if total != 3 {
		t.Fatalf("dropped %d stale frames, want 3", total)
	}
}
