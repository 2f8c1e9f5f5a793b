package eventsim

// FallbackCost breaks down the price of a mid-run switch→ring collective
// fallback (see internal/train/switchheal.go): the stalled step deadlines
// burned confirming the failure, the one replayed ring exchange that
// re-earns the lost iteration, and the steady-state per-iteration cost on
// either side of the trip. All values are seconds of virtual time.
type FallbackCost struct {
	DetectSeconds       float64 // step deadlines expired before the monitor confirms
	ReplaySeconds       float64 // re-running the in-flight iteration's exchange on the ring
	SwitchIterSeconds   float64 // healthy armed switch exchange (incl. snapshot copy)
	DegradedIterSeconds float64 // post-fallback ring exchange (incl. snapshot copy)
	TotalPenaltySeconds float64 // one-time cost of the trip: detect + replay
}

// SwitchFallbackCost models the self-healing runner's fallback on the
// fluid-flow simulator. Detection follows the SwitchMonitor grading: a
// hard transport self-report confirms immediately, but the worst case —
// a silent stall — burns softStrikes consecutive step deadlines
// (stepTimeout seconds each) before the trip. Arming the fallback costs
// every iteration a two-deep snapshot: weights, velocity, residual and
// gradient copied at snapCopyPerByte seconds per gradient byte (pass 0
// to ignore memory traffic). The replayed iteration and every iteration
// after the trip pay the ring exchange instead of the switch one.
func SwitchFallbackCost(p Params, workers int, modelBytes, chunkBytes, combinePerByte, stepTimeout, snapCopyPerByte float64, softStrikes int) FallbackCost {
	if softStrikes < 1 {
		softStrikes = 1
	}
	sw := SwitchTimeDelays(p, workers, modelBytes, chunkBytes, combinePerByte, nil)
	ring := RingTimeDelays(p, workers, modelBytes/float64(workers), 0, nil)
	snap := 4 * modelBytes * snapCopyPerByte
	c := FallbackCost{
		DetectSeconds:       float64(softStrikes) * stepTimeout,
		ReplaySeconds:       ring,
		SwitchIterSeconds:   sw + snap,
		DegradedIterSeconds: ring + snap,
	}
	c.TotalPenaltySeconds = c.DetectSeconds + c.ReplaySeconds
	return c
}
