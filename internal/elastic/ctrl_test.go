package elastic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"inceptionn/internal/fault"
)

func dialTest(t *testing.T, srv *CtrlServer, id int, opts CtrlOptions) *Client {
	t.Helper()
	cl, err := DialCtrl(srv.Addr(), id, opts)
	if err != nil {
		t.Fatalf("dial ctrl for node %d: %v", id, err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestCtrlGatherAndViews drives a full rendezvous over the TCP control
// channel and checks every client sees identical values and views.
func TestCtrlGatherAndViews(t *testing.T) {
	coord := NewCoordinator(3, Config{})
	defer coord.Close()
	srv, err := ServeCtrl("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clients := make([]*Client, 3)
	for id := range clients {
		clients[id] = dialTest(t, srv, id, CtrlOptions{})
	}
	for id, cl := range clients {
		v := cl.View()
		if v.Epoch != 0 || len(v.Members) != 3 {
			t.Fatalf("client %d view = %+v, want epoch 0 with 3 members", id, v)
		}
		cl.Beat(id)
	}

	type res struct {
		vals map[int]interface{}
		err  error
	}
	ch := make(chan res, 3)
	for id, cl := range clients {
		go func(id int, cl *Client) {
			vals, err := cl.Gather(context.Background(), id, 0, "recover@1", Item{Iter: int64(10 + id), Cursor: uint64(id)})
			ch <- res{vals, err}
		}(id, cl)
	}
	for i := 0; i < 3; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("gather: %v", r.err)
		}
		if len(r.vals) != 3 {
			t.Fatalf("gather returned %d values, want 3", len(r.vals))
		}
		for m, v := range r.vals {
			it, ok := v.(Item)
			if !ok {
				t.Fatalf("gather value for %d is %T, want Item", m, v)
			}
			if it.Iter != int64(10+m) || it.Cursor != uint64(m) {
				t.Fatalf("gather item for %d = %+v", m, it)
			}
		}
	}

	// A retransmitted gather request (same key) must replay the cached
	// result instead of parking a second barrier.
	vals, err := clients[1].Gather(context.Background(), 1, 0, "recover@1", Item{Iter: 11, Cursor: 1})
	if err != nil || len(vals) != 3 {
		t.Fatalf("replayed gather = (%d values, %v), want 3 cached values", len(vals), err)
	}
}

// TestCtrlJoinAfterDepart exercises the membership churn RPCs: a depart
// bumps the epoch for the survivors, and a join splices the node back in
// at the next epoch.
func TestCtrlJoinAfterDepart(t *testing.T) {
	coord := NewCoordinator(3, Config{})
	defer coord.Close()
	srv, err := ServeCtrl("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c0 := dialTest(t, srv, 0, CtrlOptions{})
	c2 := dialTest(t, srv, 2, CtrlOptions{})

	c2.Depart(2)
	v, err := c0.AwaitEpoch(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("await epoch after depart: %v", err)
	}
	if v.Epoch != 1 || v.Contains(2) {
		t.Fatalf("post-depart view = %+v, want epoch 1 without node 2", v)
	}
	if v.Leader() != 0 {
		t.Fatalf("post-depart leader = %d, want 0", v.Leader())
	}

	jv, err := c2.Join(2)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if jv.Epoch != 2 || !jv.Contains(2) {
		t.Fatalf("post-join view = %+v, want epoch 2 containing node 2", jv)
	}
	if got := c0.View(); got.Epoch != 2 || len(got.Members) != 3 {
		t.Fatalf("survivor view after join = %+v", got)
	}
}

// TestCtrlPartitionFailsClosed cuts one worker's control link with the
// chaos injector and checks both sides of the minority-halt rule: the
// client declares itself partitioned (view without self, collectives
// refused) and the coordinator's failure detector evicts it with a
// partition-graded cause.
func TestCtrlPartitionFailsClosed(t *testing.T) {
	// SuspectAfter must leave the client time to fail closed first: until
	// it declares partition (PartitionAfter plus one ≤200ms retry backoff)
	// every reconnect's hello marks the link up again, and an eviction
	// landing in such a window is graded "link up". At 300ms the two raced
	// and the grade assertion below failed 5 runs in 10 on an idle box.
	coord := NewCoordinator(2, Config{SuspectAfter: time.Second})
	defer coord.Close()
	srv, err := ServeCtrl("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := fault.NewInjector(2, fault.Config{
		Seed: 11,
		Links: map[fault.Link]fault.LinkFaults{
			{Src: 1, Dst: CtrlPeer}: {DropRate: 1, From: 4},
		},
	})
	c0 := dialTest(t, srv, 0, CtrlOptions{})
	c1 := dialTest(t, srv, 1, CtrlOptions{Chaos: inj, PartitionAfter: 250 * time.Millisecond})
	c0.Beat(0)
	c1.Beat(1)

	deadline := time.Now().Add(5 * time.Second)
	for !c1.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("client 1 never declared partition")
		}
		c1.Beat(1)
		time.Sleep(20 * time.Millisecond)
	}
	if v := c1.View(); v.Contains(1) {
		t.Fatalf("partitioned client still sees itself in view %+v", v)
	}
	if _, err := c1.Gather(context.Background(), 1, 0, "x", Item{}); !errors.Is(err, ErrEvicted) {
		t.Fatalf("partitioned gather error = %v, want ErrEvicted", err)
	}
	if _, err := c1.Join(1); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned join error = %v, want ErrPartitioned", err)
	}

	// The majority side: node 0 keeps beating, node 1 goes silent and is
	// evicted; its cause should carry the link-partition grade (its
	// control connection dropped when the chaos window opened).
	evictDeadline := time.Now().Add(5 * time.Second)
	for {
		c0.Beat(0)
		v := c0.View()
		if !v.Contains(1) {
			break
		}
		if time.Now().After(evictDeadline) {
			t.Fatal("coordinator never evicted the partitioned node")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cause := coord.DeathCause(1)
	if cause == nil {
		t.Fatal("no death cause recorded for partitioned node")
	}
	if got := cause.Error(); !contains(got, "partition suspected") {
		t.Fatalf("death cause %q lacks partition grade", got)
	}
}

// TestCtrlSeqPersistsAcrossClients verifies that a shared chaos sequence
// counter lets a windowed control-link fault heal across client
// generations: a fresh client dialled after the window closes gets
// through even though its own attempt count restarts.
func TestCtrlSeqPersistsAcrossClients(t *testing.T) {
	coord := NewCoordinator(2, Config{})
	defer coord.Close()
	srv, err := ServeCtrl("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := fault.NewInjector(2, fault.Config{
		Seed: 3,
		Links: map[fault.Link]fault.LinkFaults{
			{Src: 1, Dst: CtrlPeer}: {DropRate: 1, From: 0, Until: 6},
		},
	})
	seq := new(atomic.Uint64)
	// First generation: dialled inside the window, every frame dropped
	// until the shared counter passes the Until bound, after which the
	// retransmit loop succeeds.
	c1, err := DialCtrl(srv.Addr(), 1, CtrlOptions{Chaos: inj, Seq: seq, PartitionAfter: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial through healing window: %v", err)
	}
	c1.Close()
	if seq.Load() < 6 {
		t.Fatalf("shared seq = %d, want past the fault window", seq.Load())
	}
	// Second generation reuses the counter: it is already past the
	// window, so the dial succeeds on the first attempt.
	before := seq.Load()
	c1b := dialTest(t, srv, 1, CtrlOptions{Chaos: inj, Seq: seq, PartitionAfter: 10 * time.Second})
	if c1b.Partitioned() {
		t.Fatal("healed client should not be partitioned")
	}
	if seq.Load() < before {
		t.Fatal("shared seq went backwards")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
