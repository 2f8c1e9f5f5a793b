package eventsim

import (
	"math"
	"testing"
)

func TestSwitchFallbackCost(t *testing.T) {
	p := testParams()
	const (
		modelBytes  = 4 * 151306.0
		stepTimeout = 0.25
		snapPerByte = 1.0 / 16e9 // ~16 GB/s memcpy
	)
	c := SwitchFallbackCost(p, 4, modelBytes, 0, 0, stepTimeout, snapPerByte, 1)

	// A single soft strike confirms after exactly one step deadline, and
	// the one-time penalty is that deadline plus one replayed ring
	// exchange.
	if c.DetectSeconds != stepTimeout {
		t.Errorf("detect %g, want one step deadline %g", c.DetectSeconds, stepTimeout)
	}
	if want := c.DetectSeconds + c.ReplaySeconds; math.Abs(c.TotalPenaltySeconds-want) > 1e-12 {
		t.Errorf("total penalty %g, want detect+replay %g", c.TotalPenaltySeconds, want)
	}
	if c.ReplaySeconds != RingTimeDelays(p, 4, modelBytes/4, 0, nil) {
		t.Errorf("replay %g, want one ring exchange", c.ReplaySeconds)
	}

	// The degraded band is the ring collective plus snapshot bookkeeping:
	// it must cost more than a bare ring iteration but stay within a
	// 1.15× envelope of it for any realistic memcpy rate.
	ring := RingTimeDelays(p, 4, modelBytes/4, 0, nil)
	if c.DegradedIterSeconds <= ring {
		t.Errorf("degraded %g should exceed bare ring %g (snapshot overhead)", c.DegradedIterSeconds, ring)
	}
	if ratio := c.DegradedIterSeconds / ring; ratio > 1.15 {
		t.Errorf("degraded/ring ratio %.3f exceeds 1.15", ratio)
	}

	// More soft strikes burn proportionally more deadlines.
	c3 := SwitchFallbackCost(p, 4, modelBytes, 0, 0, stepTimeout, snapPerByte, 3)
	if c3.DetectSeconds != 3*stepTimeout {
		t.Errorf("3-strike detect %g, want %g", c3.DetectSeconds, 3*stepTimeout)
	}
	if c3.TotalPenaltySeconds <= c.TotalPenaltySeconds {
		t.Error("extra strikes should raise the one-time penalty")
	}

	// Zero memcpy rate collapses the armed overhead.
	c0 := SwitchFallbackCost(p, 4, modelBytes, 0, 0, stepTimeout, 0, 0)
	if c0.DegradedIterSeconds != ring {
		t.Errorf("free snapshots: degraded %g, want bare ring %g", c0.DegradedIterSeconds, ring)
	}
	if c0.DetectSeconds != stepTimeout {
		t.Errorf("softStrikes<1 should clamp to 1, got detect %g", c0.DetectSeconds)
	}
}
