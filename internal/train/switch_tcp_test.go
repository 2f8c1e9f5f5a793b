package train

import (
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
)

// TestSwitchTCPFallbackOnSwitchKill kills the switch node mid-run over
// real sockets: the run must trip the fallback, finish on the ring band,
// and still match the uninterrupted ring reference bit for bit.
func TestSwitchTCPFallbackOnSwitchKill(t *testing.T) {
	const iters = 8
	ref := ringReference(t, iters)
	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = 5 * time.Second
	o.Chaos = &fault.Config{Seed: 11, CrashAfter: map[int]uint64{o.Workers: 10}}
	res, err := RunSwitchTCP(models.NewHDCSmall, trainDS, testDS, iters, o, fpcodec.MustBound(10))
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
