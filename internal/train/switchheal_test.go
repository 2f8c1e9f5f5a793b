package train

import (
	"errors"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

// healOptions is the shared base: 4 workers + the switch at node 4 on the
// TCP plane (the wire chaos faults), whole-gradient chunks (one up/down
// frame per worker per iteration, so chaos frame schedules are easy to
// aim), and a step deadline for stall detection.
func healOptions() Options {
	o := digitsOptions()
	o.Algo = SwitchReduce
	o.Recovery = SwitchFallback
	o.StepTimeout = 2 * time.Second
	o.EvalEvery = 4
	return o.onTCP(fpcodec.MustBound(10))
}

// ringReference runs the fault-free plain ring training the self-healed
// run must match bit for bit.
func ringReference(t *testing.T, iters int) Result {
	t.Helper()
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.EvalEvery = 4
	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertBitIdentical(t *testing.T, got, want Result) {
	t.Helper()
	if len(got.FinalWeights) != len(want.FinalWeights) {
		t.Fatalf("weight count %d, want %d", len(got.FinalWeights), len(want.FinalWeights))
	}
	for i := range got.FinalWeights {
		if got.FinalWeights[i] != want.FinalWeights[i] {
			t.Fatalf("weight %d = %x, ring reference %x", i, got.FinalWeights[i], want.FinalWeights[i])
		}
	}
	if len(got.Evals) != len(want.Evals) {
		t.Fatalf("evals %v, want %v", got.Evals, want.Evals)
	}
	for i := range got.Evals {
		if got.Evals[i] != want.Evals[i] {
			t.Fatalf("eval %d = %+v, ring reference %+v", i, got.Evals[i], want.Evals[i])
		}
	}
}

// TestSwitchFallbackBitExactOnSwitchCrash is the self-healing acceptance
// run: a 4-node switch training whose switch dies mid-multicast must detect the
// failure, fall back to the ring collective mid-run, and finish with
// weights bit-identical to an uninterrupted ring run — while the trace
// names the dead switch, not an innocent worker.
func TestSwitchFallbackBitExactOnSwitchCrash(t *testing.T) {
	const iters = 10
	ref := ringReference(t, iters)

	trainDS, testDS := digitsData()
	o := healOptions()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(reg, tracer)
	swID := o.Workers
	// One down-frame per worker per iteration: dying after 10 sends kills
	// the switch partway through iteration 2's multicast, so some workers
	// hold the combined gradient and some do not — maximum replay skew.
	o.Chaos = &fault.Config{Seed: 5, CrashAfter: map[int]uint64{swID: 10}}

	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	if res.FallbackCause == "" || !strings.Contains(res.FallbackCause, "switch") {
		t.Errorf("fallback cause should name the switch: %q", res.FallbackCause)
	}
	if max := 2 * o.StepTimeout.Seconds(); res.FallbackDetectSeconds > max {
		t.Errorf("detection latency %.3fs exceeds 2×StepTimeout (%.1fs)", res.FallbackDetectSeconds, max)
	}
	assertBitIdentical(t, res, ref)

	// Observability: the fallback is a first-class event — counted,
	// spanned against the dead switch, and the critical-path attribution
	// blames the switch for the detection stall instead of a worker.
	if c := reg.Counter("collective_fallbacks").Value(); c != 1 {
		t.Errorf("collective_fallbacks = %d, want 1", c)
	}
	spans := tracer.Snapshot()
	sawFallback := false
	for _, s := range spans {
		if s.Phase == obs.PhaseFallback {
			sawFallback = true
			if s.Node != swID {
				t.Errorf("fallback span charged to node %d, want the switch (%d)", s.Node, swID)
			}
		}
	}
	if !sawFallback {
		t.Error("no fallback span recorded")
	}
	blame := obs.AttributeCriticalPath(spans, 2*time.Millisecond)
	if blame.GatingCount[swID] < 1 {
		t.Errorf("critical-path attribution never blames the switch: %v", blame.GatingCount)
	}
}

// TestSwitchFallbackOnStalledUplink partitions one worker's uplink
// mid-run: no transport self-report reaches the switch or the other
// workers, so detection must come from the step-deadline stall grading.
func TestSwitchFallbackOnStalledUplink(t *testing.T) {
	const iters = 8
	ref := ringReference(t, iters)

	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = time.Second
	swID := o.Workers
	// One up-frame per iteration on link 1→switch: blackholing from frame
	// 2 hangs iteration 2 with every worker mid-protocol.
	o.Chaos = &fault.Config{Seed: 6, Links: map[fault.Link]fault.LinkFaults{
		{Src: 1, Dst: swID}: fault.Partition(2),
	}}

	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	if max := 2 * o.StepTimeout.Seconds(); res.FallbackDetectSeconds > max {
		t.Errorf("detection latency %.3fs exceeds 2×StepTimeout (%.1fs)", res.FallbackDetectSeconds, max)
	}
	assertBitIdentical(t, res, ref)
}

// TestSwitchFallbackArmedButUnused: with fallback armed and no fault the
// run must behave exactly like a plain switch run — same bits as the
// ring, zero fallbacks, and the completion drain must not deadlock.
func TestSwitchFallbackArmedButUnused(t *testing.T) {
	const iters = 8
	ref := ringReference(t, iters)
	trainDS, testDS := digitsData()
	o := healOptions()
	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 0 || res.FallbackCause != "" {
		t.Fatalf("spurious fallback: %d (%q)", res.Fallbacks, res.FallbackCause)
	}
	assertBitIdentical(t, res, ref)
}

// TestSwitchCrashFailsClosedWithoutFallback pins the opt-in: the same
// switch kill without SwitchFallback must fail the run, not heal it.
func TestSwitchCrashFailsClosedWithoutFallback(t *testing.T) {
	trainDS, testDS := digitsData()
	o := healOptions()
	o.Recovery = FailClosed
	o.StepTimeout = 500 * time.Millisecond
	o.Chaos = &fault.Config{Seed: 5, CrashAfter: map[int]uint64{o.Workers: 10}}
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o)
	if err == nil {
		t.Fatalf("run healed itself without SwitchFallback (fallbacks=%d)", res.Fallbacks)
	}
}

// TestSwitchFallbackRequiresStepTimeout: stall detection needs a
// deadline, so arming the fallback without one is a configuration error.
func TestSwitchFallbackRequiresStepTimeout(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = SwitchReduce
	o.Recovery = SwitchFallback
	if _, err := Run(models.NewHDCSmall, trainDS, testDS, 2, o); err == nil || !strings.Contains(err.Error(), "StepTimeout") {
		t.Fatalf("missing StepTimeout accepted: %v", err)
	}
}

// TestSwitchWorkerCrashFailsClosed: only the switch is expendable. A
// worker casualty must fail the run (the surviving workers may attempt a
// fallback first, but the ring cannot complete without the dead member's
// shard) and surface the crash as the causal error.
func TestSwitchWorkerCrashFailsClosed(t *testing.T) {
	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = time.Second
	o.Chaos = &fault.Config{Seed: 7, CrashAfter: map[int]uint64{1: 3}}
	_, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o)
	if err == nil {
		t.Fatal("run with a dead worker reported success")
	}
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("causal error should be the worker crash, got: %v", err)
	}
}
