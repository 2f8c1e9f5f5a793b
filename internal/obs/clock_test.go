package obs

import (
	"fmt"
	"testing"
	"time"
)

// skewedProbe fakes a remote whose clock runs skew ahead of ours, with a
// per-probe random-ish network delay in [minDelay, minDelay+jitter].
func skewedProbe(skew, minDelay, jitter time.Duration) func() (ClockDoc, error) {
	i := 0
	return func() (ClockDoc, error) {
		i++
		// Deterministic jitter pattern: varies per probe, bounded.
		d := minDelay + time.Duration(int64(i*7919)%int64(jitter+1))
		time.Sleep(d)
		now := time.Now()
		return ClockDoc{
			UnixNs:      now.Add(skew).UnixNano(),
			TraceNs:     0,
			EpochUnixNs: now.Add(skew).UnixNano(),
		}, nil
	}
}

func TestEstimateClockRecoversInjectedSkew(t *testing.T) {
	for _, skew := range []time.Duration{
		250 * time.Millisecond,
		-3 * time.Second,
		0,
	} {
		t.Run(fmt.Sprintf("skew=%s", skew), func(t *testing.T) {
			est, err := EstimateClock(9, skewedProbe(skew, 200*time.Microsecond, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if est.Samples != 9 {
				t.Fatalf("samples = %d, want 9", est.Samples)
			}
			errNs := est.OffsetNs - skew.Nanoseconds()
			if errNs < 0 {
				errNs = -errNs
			}
			// The midpoint estimate must recover the injected skew within
			// its own claimed uncertainty (±RTT/2 of the best sample).
			if errNs > est.UncertaintyNs {
				t.Fatalf("offset error %dns exceeds claimed uncertainty %dns (offset=%dns, want≈%dns)",
					errNs, est.UncertaintyNs, est.OffsetNs, skew.Nanoseconds())
			}
			if est.UncertaintyNs <= 0 {
				t.Fatalf("uncertainty must be positive, got %d", est.UncertaintyNs)
			}
			if est.RTTNs < (200 * time.Microsecond).Nanoseconds() {
				t.Fatalf("rtt %dns below injected minimum delay", est.RTTNs)
			}
		})
	}
}

func TestEstimateClockKeepsMinRTTSample(t *testing.T) {
	// Probe 3 answers instantly; the rest sleep. The min-RTT sample's
	// tight bound must win over the sloppy ones.
	i := 0
	probe := func() (ClockDoc, error) {
		i++
		if i != 3 {
			time.Sleep(5 * time.Millisecond)
		}
		return ClockDoc{UnixNs: time.Now().UnixNano()}, nil
	}
	est, err := EstimateClock(5, probe)
	if err != nil {
		t.Fatal(err)
	}
	if est.UncertaintyNs > (5*time.Millisecond).Nanoseconds()/2 {
		t.Fatalf("uncertainty %dns: min-RTT sample not selected", est.UncertaintyNs)
	}
}

func TestEstimateClockAllProbesFail(t *testing.T) {
	_, err := EstimateClock(3, func() (ClockDoc, error) {
		return ClockDoc{}, fmt.Errorf("connection refused")
	})
	if err == nil {
		t.Fatal("want error when every probe fails")
	}
}

func TestEstimateClockPartialFailure(t *testing.T) {
	i := 0
	est, err := EstimateClock(4, func() (ClockDoc, error) {
		i++
		if i%2 == 0 {
			return ClockDoc{}, fmt.Errorf("flake")
		}
		return ClockDoc{UnixNs: time.Now().UnixNano()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 2 {
		t.Fatalf("samples = %d, want 2 (failed probes must not count)", est.Samples)
	}
}
