package train

import (
	"sync/atomic"
	"testing"
	"time"

	"inceptionn/internal/models"
)

// TestRingStallSurfacesAsError is the regression test for the
// silent-crash bug: a stalled worker used to panic the whole process from
// inside a goroutine (unrecoverable). With the Ctx exchange path, the
// neighbour's step deadline expires, siblings are cancelled, and Run
// returns the causal error.
func TestRingStallSurfacesAsError(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Workers = 3
	o.StepTimeout = 500 * time.Millisecond

	var calls atomic.Int64
	o.LocalGradTransform = func([]float32) {
		// Every worker shares this hook; exactly one call — one worker at
		// one iteration — stalls for far longer than the step deadline,
		// simulating a wedged node.
		if calls.Add(1) == 5 {
			time.Sleep(3 * time.Second)
		}
	}

	done := make(chan struct{})
	var res Result
	var err error
	go func() {
		defer close(done)
		res, err = Run(models.NewHDCSmall, trainDS, testDS, 50, o)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung instead of failing fast")
	}
	if err == nil {
		t.Fatalf("stalled worker did not surface an error (res=%+v)", res)
	}
	t.Logf("got expected error: %v", err)
}
