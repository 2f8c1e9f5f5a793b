package hierarchy

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/ring"
)

// TestAllReduceCtxTimeoutOnStalledWorker injects a stall into the
// hierarchical exchange: worker 3 never joins its group ring. With a
// StepTimeout its group peer must surface a deadline error instead of
// wedging the whole hierarchy.
func TestAllReduceCtxTimeoutOnStalledWorker(t *testing.T) {
	topo := Topology{Workers: 4, GroupSize: 2, Mode: ModeRingOfLeaders}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	f := comm.NewFabric(topo.FabricSize(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opt := ring.Options{StepTimeout: 50 * time.Millisecond}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ { // worker 3 stalls: it never starts
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := []float32{float32(id), 1}
			errs[id] = AllReduceCtx(ctx, topo, f.Endpoint(id), g, 0, nil, opt)
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hierarchy hung on the stalled worker despite StepTimeout")
	}
	// Worker 2 shares a group ring with the stalled worker 3: it must be
	// the one reporting the step deadline.
	if errs[2] == nil || !errors.Is(errs[2], context.DeadlineExceeded) {
		t.Fatalf("worker 2: err = %v, want a step deadline", errs[2])
	}
}

// TestWrongSizedLegIsError: the two down legs copy a peer's vector into
// grad, so a payload of any other length must fail the exchange instead
// of being copied short. Each row plays one hop's sender by hand.
func TestWrongSizedLegIsError(t *testing.T) {
	topo := Topology{Workers: 2, GroupSize: 2, Mode: ModeAggregatorTree}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rows := map[string]func(f *comm.Fabric) error{
		// The aggregator returns one float too many to leader 0.
		"aggregator-down": func(f *comm.Fabric) error {
			go ring.AllReduceGroupCtx(ctx, f.Endpoint(1), []int{0, 1}, []float32{3, 4}, 0, nil, ring.Options{TagOffset: groupTagOffset})
			go ring.AggregateStepCtx(ctx, f.Endpoint(topo.AggregatorID()), []int{0}, 2,
				func(sum []float32) []float32 { return append(sum, 0) }, ring.Options{})
			return AllReduceCtx(ctx, topo, f.Endpoint(0), []float32{1, 2}, 0, nil, ring.Options{})
		},
		// Leader 0 broadcasts one float too many to member 1.
		"leader-down": func(f *comm.Fabric) error {
			go func() {
				e := f.Endpoint(0)
				if ring.AllReduceGroupCtx(ctx, e, []int{0, 1}, []float32{1, 2}, 0, nil, ring.Options{TagOffset: groupTagOffset}) == nil {
					_ = e.SendCtx(ctx, 1, []float32{4, 6, 0}, 0, tagLeaderDown)
				}
			}()
			return AllReduceCtx(ctx, topo, f.Endpoint(1), []float32{3, 4}, 0, nil, ring.Options{})
		},
	}
	for name, run := range rows {
		err := run(comm.NewFabric(topo.FabricSize(), nil))
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want a payload-length error", name, err)
		}
	}
}
