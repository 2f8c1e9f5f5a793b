package ring

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/comm"
)

// TestAggregateStepCtxTimeoutOnStalledWorker injects a stall into the
// worker-aggregator exchange: worker 1 never sends its gradient. With a
// StepTimeout the aggregator must fail the step with an error naming the
// wedged worker instead of blocking forever.
func TestAggregateStepCtxTimeoutOnStalledWorker(t *testing.T) {
	f := comm.NewFabric(3, nil)
	const agg = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Worker 0 participates normally; worker 1 stalls.
	go func() {
		_, _ = WorkerExchangeCtx(ctx, f.Endpoint(0), agg, []float32{1, 2}, 0)
	}()

	done := make(chan error, 1)
	go func() {
		done <- AggregateStepCtx(ctx, f.Endpoint(agg), []int{0, 1}, 2,
			func(sum []float32) []float32 { return sum },
			Options{StepTimeout: 50 * time.Millisecond})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aggregator succeeded despite the stalled worker")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want a step deadline", err)
		}
		if !strings.Contains(err.Error(), "from 1") {
			t.Fatalf("err = %v, want it to name stalled worker 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aggregator hung on the stalled worker despite StepTimeout")
	}
}
