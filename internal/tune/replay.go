package tune

import (
	"math"

	"inceptionn/internal/obs"
)

// Validate replays a fresh measured sample (one the fit has not seen)
// through the fitted simulator and returns the per-phase calibration —
// the cross-validation behind the ≤15% communication-phase gate. The
// returned MaxAbsRelErr is computed over the send and reduce phases
// only: recv spans measure synchronization waits (residual slack, not a
// modeled cost) and are reported but not gated.
func (f *Fitted) Validate(s Sample) (*obs.Calibration, float64) {
	iters := s.Workload.Iters - s.WarmupIters
	if s.Workload.Iters <= 0 {
		iters = spanIters(s.Spans) - s.WarmupIters
	}
	if iters <= 0 {
		return nil, 0
	}
	// The replay is deterministic, so a few simulated iterations pin its
	// per-phase means; the measured side keeps every post-warmup
	// iteration — per-phase means don't need matching cell counts, and
	// more measured cells is a tighter estimate of the machine's typical
	// cost.
	simIters := iters
	if simIters > maxReplayIters {
		simIters = maxReplayIters
	}
	sim := f.ReplaySpans(s.Workload, simIters)
	if sim == nil {
		return nil, 0
	}
	var measured []obs.Span
	for _, sp := range s.Spans {
		if sp.Iter >= s.WarmupIters && sp.Iter < s.WarmupIters+iters {
			measured = append(measured, sp)
		}
	}
	cal := obs.Calibrate(measured, sim, trimFrac)
	maxErr := 0.0
	for _, pc := range cal.Phases {
		if pc.Phase != obs.PhaseSend && pc.Phase != obs.PhaseReduce {
			continue
		}
		if pc.MeasuredMean > 0 && pc.SimCells > 0 {
			if e := math.Abs(pc.RelErr); e > maxErr {
				maxErr = e
			}
		}
	}
	return cal, maxErr
}

// CrossCheck runs the plan's workload through the fitted event
// simulator and returns the predicted iteration seconds on the dynamic
// model (compute + exchange critical path + fitted overhead), or 0 when
// the strategy has no span-emitting event model. The event replay does
// not model intra-step chunk pipelining, so chunked ring plans
// cross-check against their unchunked equivalent.
func (pl *Planner) CrossCheck(opt PlanOption) float64 {
	dur, err := pl.Fit.replay(pl.workload(opt), 1, nil)
	if err != nil {
		return 0
	}
	return dur + pl.Fit.OverheadSec
}

// workload converts a plan option into the workload it would produce at
// the planner's scale.
func (pl *Planner) workload(opt PlanOption) Workload {
	ratio := 0.0
	if opt.Compress {
		ratio = pl.effRatio()
	}
	return Workload{
		Workers:     pl.Workers,
		ModelBytes:  pl.ModelBytes,
		Strategy:    opt.Strategy,
		ChunkFloats: opt.ChunkFloats,
		Compress:    opt.Compress,
		Ratio:       ratio,
	}
}

// effRatio resolves the compression ratio the planner assumes for
// compressed candidates.
func (pl *Planner) effRatio() float64 {
	if pl.Ratio > 1 {
		return pl.Ratio
	}
	if pl.Fit != nil && pl.Fit.Ratio > 1 {
		return pl.Fit.Ratio
	}
	return DefaultRatio
}

// effCodecRate resolves the codec throughput the planner assumes.
func (pl *Planner) effCodecRate() float64 {
	if pl.Fit != nil && pl.Fit.CodecRate > 0 {
		return pl.Fit.CodecRate
	}
	return DefaultCodecRate
}
