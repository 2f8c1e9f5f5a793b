// Package tune is the offline half of the model stack: it fits the
// simulators' parameters to measured span traces (upgrading
// obs.Calibrate from a diff table to a calibrated model), sweeps the
// exchange-strategy × chunk-size × compression search space through the
// fitted netsim/eventsim models, and ranks the plans by predicted
// iteration time.
//
// The flow has two stages:
//
//  1. Fit: one or more measured traces (each described by a Workload —
//     worker count, model bytes, strategy, chunking, compression ratio)
//     are reduced to per-{node,iteration} phase cells, and netsim's
//     α-β-γ parameter set is least-squares fitted to them: per-message
//     overhead α and stream bandwidth β from the send cells, summation
//     rate γ from the reduce cells, compute time from the compute
//     cells, codec throughput from the compress spans. Per-phase
//     eventsim scale factors and residuals come from replaying the
//     fitting workload through the fitted event simulator and diffing
//     with obs.Calibrate.
//  2. Plan: Planner sweeps the candidate grid through the fitted
//     closed-form model (netsim.Params.Exchange plus the fitted codec
//     cost and the chunk-pipelining overlap), ranks by predicted
//     iteration time, and cross-checks the top plans dynamically with
//     the fluid-flow event simulator (eventsim.Replay).
//     What-if extrapolation re-runs the sweep at simulated scales far
//     past the testbed (100s–1000s of nodes) with FireCaffe-style
//     hierarchical reduction trees in the candidate set.
//
// Both run offline over saved traces (a run's -trace-out file carries its
// Workload as a tune_meta line, read by ReadTraceFile), never to configure
// a live run: the paper uses its model (Sec. VIII-D) for scalability
// analysis alone. `inctrace tune` is the command; the probe traces
// recorded under testdata/ gate Fit, Validate and Plan deterministically.
package tune

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"inceptionn/internal/eventsim"
	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// Workload describes the run that produced a measured trace — everything
// the fitter needs to convert span durations into rates. It doubles as
// the self-description a run embeds in its trace (see Meta).
type Workload struct {
	Workers     int     `json:"workers"`
	ModelBytes  int64   `json:"model_bytes"`
	Strategy    string  `json:"strategy"`               // train.Algorithm.String() name
	ChunkFloats int     `json:"chunk_floats,omitempty"` // ring ChunkSize / switch SwitchChunk
	Compress    bool    `json:"compress,omitempty"`
	Ratio       float64 `json:"ratio,omitempty"` // measured raw/wire compression ratio
	Iters       int     `json:"iters,omitempty"`
}

// maxWorkers and maxModelBytes bound a workload read from a trace to
// clusters and gradients the models are meant for (the what-if ladder
// tops out at 1024 nodes): the planner enumerates the worker count's
// divisors, and their product, 2^60, keeps the models' int64 bytes ×
// workers products from overflowing.
const (
	maxWorkers    = 1 << 20
	maxModelBytes = 1 << 40
)

// Validate reports whether the workload can drive a fit.
func (w Workload) Validate() error {
	if w.Workers < 2 || w.Workers > maxWorkers {
		return fmt.Errorf("tune: workload needs 2..%d workers, got %d", maxWorkers, w.Workers)
	}
	if w.ModelBytes <= 0 || w.ModelBytes > maxModelBytes {
		return fmt.Errorf("tune: workload needs model bytes in 1..%d, got %d", int64(maxModelBytes), w.ModelBytes)
	}
	switch w.Strategy {
	case "ring", "switch", "worker-aggregator", "hierarchical-tree", "hierarchical-ring":
	default:
		return fmt.Errorf("tune: unknown workload strategy %q", w.Strategy)
	}
	return nil
}

// ratio resolves the effective wire compression ratio (1 when the
// workload ran uncompressed or the ratio was not recorded).
func (w Workload) ratio() float64 {
	if !w.Compress || w.Ratio <= 1 {
		return 1
	}
	return w.Ratio
}

// traffic packetizes n raw bytes the way this workload's wire did.
func (w Workload) traffic(n int64) netsim.Traffic {
	if r := w.ratio(); r > 1 {
		return netsim.NICCompressed(n, r)
	}
	return netsim.Plain(n)
}

// blockBytes returns the largest ring-block size of the workload.
func (w Workload) blockBytes() int64 {
	return netsim.RingBlockBytes(w.ModelBytes, w.Workers)
}

// chunksPerBlock returns how many messages one ring block travels as.
func (w Workload) chunksPerBlock() int64 {
	if w.ChunkFloats <= 0 {
		return 1
	}
	blockFloats := (w.blockBytes() + 3) / 4
	k := (blockFloats + int64(w.ChunkFloats) - 1) / int64(w.ChunkFloats)
	if k < 1 {
		k = 1
	}
	return k
}

// Sample pairs a measured trace with its workload description.
type Sample struct {
	Workload Workload
	Spans    []obs.Span
	// WarmupIters drops the first iterations' cells from the fit: cold
	// caches, first-touch allocation and scheduler ramp-up make them
	// unrepresentative of steady state.
	WarmupIters int
}

// iterSeconds returns the sample's mean measured iteration time: the mean
// per-iteration span extent (max end − min start over each iteration's
// spans).
func (s Sample) iterSeconds() float64 {
	type extent struct{ lo, hi int64 }
	iters := make(map[int]extent)
	for _, sp := range s.Spans {
		if sp.Iter < s.WarmupIters {
			continue
		}
		e, ok := iters[sp.Iter]
		if !ok {
			e = extent{lo: sp.Start, hi: sp.Start + sp.Dur}
		} else {
			if sp.Start < e.lo {
				e.lo = sp.Start
			}
			if end := sp.Start + sp.Dur; end > e.hi {
				e.hi = end
			}
		}
		iters[sp.Iter] = e
	}
	if len(iters) == 0 {
		return 0
	}
	total := 0.0
	for _, e := range iters {
		total += float64(e.hi-e.lo) / 1e9
	}
	return total / float64(len(iters))
}

// Fitted is the calibrated model: the netsim α-β-γ parameter set plus
// the workload-side rates netsim does not carry, per-phase eventsim
// scale factors, residuals, and a coverage report naming which
// parameters were actually observed (vs held at their priors).
type Fitted struct {
	// Params is the fitted netsim parameter set: Latency (α/2 per hop),
	// LineRate (β/StreamEfficiency), SumRate (γ), SwitchSumRate.
	// Parameters the traces cannot observe keep the prior's value and
	// are named in Coverage.
	Params netsim.Params `json:"params"`

	// ComputeSec is the mean compute seconds per node-iteration.
	ComputeSec float64 `json:"compute_seconds"`
	// CodecRate is the lossy codec's effective throughput in raw
	// bytes/s (0 = no compressed sample was fitted; the planner then
	// falls back to DefaultCodecRate).
	CodecRate float64 `json:"codec_rate,omitempty"`
	// Ratio is the measured wire compression ratio of the compressed
	// sample (0 = none seen).
	Ratio float64 `json:"ratio,omitempty"`
	// OverheadSec is the per-iteration residual the phase models do not
	// capture (scheduling, synchronization slack): measured iteration
	// time minus the fitted model's prediction on the fitting workload,
	// clamped at zero. Added to every plan's prediction — constant
	// across candidates, so it never changes a ranking.
	OverheadSec float64 `json:"overhead_seconds"`

	// Scale holds per-phase eventsim scale factors: measured mean over
	// fitted-sim mean, 1 for phases the replay could not compare.
	Scale [obs.NumPhases]float64 `json:"-"`
	// Residuals is the per-phase calibration of the fitted (unscaled)
	// event-simulator replay against the fitting trace.
	Residuals *obs.Calibration `json:"-"`
	// MaxCommRelErr is the largest |relative error| across the
	// communication phases (send, reduce) of Residuals.
	MaxCommRelErr float64 `json:"max_comm_rel_err"`
	// Coverage names, per parameter, whether it was fitted from the
	// traces or held at the prior.
	Coverage []string `json:"coverage"`
	// Cells is how many {node, iteration} fitting cells were used.
	Cells int `json:"cells"`
}

// DefaultCodecRate is the planner's prior for the lossy codec's
// throughput when no compressed sample was fitted (raw bytes/s; the
// repo's measured fpcodec compress+decompress rate is ~140/125 MB/s,
// bench/perf's fpcodec.compress_mb_s and fpcodec.decompress_mb_s).
const DefaultCodecRate = 130e6

// DefaultRatio is the planner's prior wire compression ratio when no
// compressed sample was fitted (the paper's Table III floor).
const DefaultRatio = 3.0

// cell is one {node, iteration} fitting observation.
type cell struct {
	t float64 // seconds in the phase
	m float64 // messages sent (send phase)
	b float64 // wire bytes moved (send phase) or raw bytes reduced
}

// Fit least-squares fits the simulator parameter set to one or more
// measured samples. prior supplies the values of parameters the traces
// cannot observe (zero-value prior = netsim.Default10GbE()).
func Fit(samples []Sample, prior netsim.Params) (*Fitted, error) {
	if prior.LineRate == 0 {
		prior = netsim.Default10GbE()
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("tune: no samples to fit")
	}
	for i, s := range samples {
		if err := s.Workload.Validate(); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		// A measured span cannot run backwards; one that does would drive
		// the fitted times, and the replay's delays, negative.
		for _, sp := range s.Spans {
			if sp.Dur < 0 {
				return nil, fmt.Errorf("sample %d: node %d iter %d %s span has negative duration %dns", i, sp.Node, sp.Iter, sp.Phase, sp.Dur)
			}
		}
	}

	var send, reduce, compute []cell
	var switchReduce []cell
	codecSec, codecRaw := 0.0, 0.0
	ratio := 0.0

	for _, s := range samples {
		w := s.Workload
		idx := obs.IndexSpans(s.Spans)
		// Group the per-{node,iter,phase} sums into per-phase cell lists
		// with the workload's message/byte counts attached.
		steps := float64(2 * (w.Workers - 1))
		wirePerStep := float64(w.traffic(w.blockBytes()).WireBytes)
		msgsPerStep := float64(w.chunksPerBlock())
		for k, d := range idx {
			if k.Iter < s.WarmupIters || k.Node < 0 {
				continue
			}
			sec := d.Seconds()
			switch {
			case w.Compress:
				// A compressed run's spans are all perturbed by the codec
				// running inline on the send path (it contends for the
				// same cores the compute and reduce phases use), so a
				// compressed sample contributes only the codec rate and
				// measured ratio below — mirroring calibrateReplay, which
				// skips compressed samples for the same reason.
			case k.Phase == obs.PhaseCompute && k.Node < w.Workers:
				compute = append(compute, cell{t: sec})
			case w.Strategy != "ring":
				// Only ring traces have the regular per-cell send/reduce
				// structure the α-β-γ fit needs; other strategies still
				// contribute compute above and switch cells below.
				if w.Strategy == "switch" && k.Phase == obs.PhaseReduce && k.Node == w.Workers {
					switchReduce = append(switchReduce, cell{t: sec, b: float64(w.ModelBytes)})
				}
			case k.Phase == obs.PhaseSend && k.Node < w.Workers:
				send = append(send, cell{t: sec, m: steps * msgsPerStep, b: steps * wirePerStep})
			case k.Phase == obs.PhaseReduce && k.Node < w.Workers:
				// Billed bytes follow netsim.Ring's Sum structure:
				// (p−1)·block per iteration.
				reduce = append(reduce, cell{t: sec, b: float64(w.Workers-1) * float64(w.blockBytes())})
			}
		}
		// Codec throughput: compress/decompress spans carry iter −1 on
		// the in-process fabric (they belong to the transport, not an
		// iteration), so they are summed straight off the span list. The
		// raw bytes processed are what the workload pushed through the
		// wire processor: every worker's codecBytes. A Workload does not
		// record the hierarchical group size, so a hierarchical sample
		// cannot size its codec input and contributes its ratio only.
		if w.Compress {
			if r := w.ratio(); r > ratio {
				ratio = r
			}
			if perWorker := codecBytes(w, 0); perWorker > 0 {
				for _, sp := range s.Spans {
					if sp.Phase == obs.PhaseCompress || sp.Phase == obs.PhaseDecompress {
						codecSec += float64(sp.Dur) / 1e9
					}
				}
				iters := w.Iters
				if iters <= 0 {
					iters = spanIters(s.Spans)
				}
				codecRaw += float64(w.Workers) * perWorker * float64(iters)
			}
		}
	}

	if len(send) == 0 {
		return nil, fmt.Errorf("tune: no ring send cells in any sample (need at least one ring-strategy trace)")
	}

	f := &Fitted{Params: prior, Cells: len(send) + len(reduce) + len(compute)}
	for p := range f.Scale {
		f.Scale[p] = 1
	}

	// --- α, β: least squares over t = α·messages + bytes/β -----------
	alpha, beta, how := fitAlphaBeta(send, 2*prior.Latency, prior.StreamEfficiency*prior.LineRate)
	f.Params.Latency = alpha / 2 // netsim charges 2·Latency per ring step
	f.Params.LineRate = beta / prior.StreamEfficiency
	// Per-packet cost is unobservable in a span trace (no packet
	// counts); charging the prior's per-packet floor against the fitted
	// bandwidth would double-count α, so it is zeroed.
	f.Params.PerPacketTime = 0
	f.Coverage = append(f.Coverage,
		fmt.Sprintf("latency: fitted α=%.1fµs per message (%s)", alpha*1e6, how),
		fmt.Sprintf("line rate: fitted β=%.0f MB/s per stream (prior stream efficiency %.2f kept)", beta/1e6, prior.StreamEfficiency),
		"per-packet time: set to 0 (packet counts unobservable in span traces; α carries the per-message cost)")

	// --- γ: summation rate from the reduce cells ---------------------
	// Fitted against netsim.Ring's structure: Sum = (p−1)·block/γ per
	// iteration, so γ = (p−1)·block / (mean reduce cell). The measured
	// cell includes the all-gather phase's block copies, which γ then
	// absorbs — it is an effective rate for the model structure that
	// consumes it, not a pure FLOP rate.
	if len(reduce) > 0 {
		var billed, secs float64
		for _, c := range trimCells(reduce) {
			billed += c.b
			secs += c.t
		}
		if secs > 0 {
			f.Params.SumRate = billed / secs
			f.Coverage = append(f.Coverage, fmt.Sprintf("sum rate: fitted γ=%.0f MB/s effective (absorbs all-gather copies)", f.Params.SumRate/1e6))
		}
	} else {
		f.Coverage = append(f.Coverage, "sum rate: held at prior (no reduce cells)")
	}

	// --- switch combine rate -----------------------------------------
	if len(switchReduce) > 0 {
		var b, t float64
		for _, c := range trimCells(switchReduce) {
			b += c.b
			t += c.t
		}
		if t > 0 {
			f.Params.SwitchSumRate = b / t
			f.Coverage = append(f.Coverage, fmt.Sprintf("switch sum rate: fitted %.0f MB/s from switch reduce spans", f.Params.SwitchSumRate/1e6))
		}
	} else {
		// The in-process switch runner's combine runs on a CPU core at
		// the same effective rate as the ring's reduction.
		f.Params.SwitchSumRate = f.Params.SumRate
		f.Coverage = append(f.Coverage, "switch sum rate: no switch reduce spans; assumed equal to fitted sum rate γ")
	}

	// --- compute ------------------------------------------------------
	if len(compute) > 0 {
		trimmed := trimCells(compute)
		t := 0.0
		for _, c := range trimmed {
			t += c.t
		}
		f.ComputeSec = t / float64(len(trimmed))
		f.Coverage = append(f.Coverage, fmt.Sprintf("compute: fitted %.3f ms per node-iteration", f.ComputeSec*1e3))
	} else {
		f.Coverage = append(f.Coverage, "compute: no compute spans (0 assumed)")
	}

	// --- codec --------------------------------------------------------
	if codecSec > 0 && codecRaw > 0 {
		f.CodecRate = codecRaw / codecSec
		f.Ratio = ratio
		f.Coverage = append(f.Coverage, fmt.Sprintf("codec: fitted %.0f MB/s at ratio %.2fx", f.CodecRate/1e6, ratio))
	} else {
		f.Coverage = append(f.Coverage, fmt.Sprintf("codec: no compressed sample; planner priors %.0f MB/s at %.1fx", DefaultCodecRate/1e6, DefaultRatio))
	}

	// --- residuals, scale factors, per-iteration overhead ------------
	f.calibrateReplay(samples)
	f.fitOverhead(samples)
	return f, nil
}

// trimFrac is the fraction of slowest cells dropped from every measured
// pool before averaging. Rare scheduler preemptions and GC pauses land
// inside single spans and inflate a 100µs cell to several milliseconds
// (50×); the fit targets the machine's typical per-phase cost, and the
// same trim is applied on the measured side of calibration so fit and
// gate see the same statistic.
const trimFrac = 0.10

// trimCells returns the cells with the slowest ceil(trimFrac·n)
// dropped (never dropping below one cell).
func trimCells(cells []cell) []cell {
	if len(cells) <= 1 {
		return cells
	}
	out := make([]cell, len(cells))
	copy(out, cells)
	sort.Slice(out, func(i, j int) bool { return out[i].t < out[j].t })
	drop := int(math.Ceil(trimFrac * float64(len(out))))
	if drop >= len(out) {
		drop = len(out) - 1
	}
	return out[:len(out)-drop]
}

// fitAlphaBeta fits t = α·m + b/β over the send cells.
//
// With two or more distinct (m, b) workload mixes it solves the
// exactly-identified 2×2 system over the extreme mixes' trimmed means —
// a paired contrast, not a joint least squares: β comes from the
// lowest-message baseline workload and α from the *marginal* cost of
// the extra messages the high-message mix carries. A joint fit weights
// all cells equally, so run-to-run drift between the probe runs leaks
// into both parameters at once; the contrast pins β to the baseline
// (so the baseline workload is reproduced exactly) and pushes the
// cross-run noise into α, where it only perturbs the chunk ranking
// rather than every transfer estimate.
//
// With a single mix the system is singular — one workload cannot
// separate per-message from per-byte cost — so α is held at alphaPrior
// and β absorbs the remainder; if the prior's per-message floor already
// exceeds the measured cells (a hardware-network prior against an
// in-process fabric), α is clamped to 0 instead of inventing a negative
// bandwidth.
func fitAlphaBeta(cells []cell, alphaPrior, betaPrior float64) (alpha, beta float64, how string) {
	type group struct {
		m, b float64 // the mix (messages, bytes per cell)
		t    float64 // trimmed mean seconds per cell
	}
	byMix := make(map[[2]float64][]cell)
	for _, c := range cells {
		byMix[[2]float64{c.m, c.b}] = append(byMix[[2]float64{c.m, c.b}], c)
	}
	groups := make([]*group, 0, len(byMix))
	for k, gc := range byMix {
		gc = trimCells(gc)
		t := 0.0
		for _, c := range gc {
			t += c.t
		}
		groups = append(groups, &group{m: k[0], b: k[1], t: t / float64(len(gc))})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].m != groups[j].m {
			return groups[i].m < groups[j].m
		}
		return groups[i].b < groups[j].b
	})
	lo, hi := groups[0], groups[len(groups)-1]

	// maxBeta bounds the fitted bandwidth at 1 TB/s: a 1/β positive only
	// by floating-point residue would otherwise imply a near-infinite β,
	// whose flows underflow the replay clock.
	const maxBeta = 1e12

	if len(groups) >= 2 {
		// Exactly-identified 2×2 solve over the extreme mixes' means.
		det := lo.m*hi.b - hi.m*lo.b
		if math.Abs(det) > 1e-9*(lo.m*hi.b+hi.m*lo.b) {
			alpha = (lo.t*hi.b - hi.t*lo.b) / det
			x := (lo.m*hi.t - hi.m*lo.t) / det
			if alpha >= 0 && x > 1/maxBeta {
				return alpha, 1 / x, "two-workload contrast (α from the marginal messages)"
			}
			// A negative α means the high-message mix ran no slower than
			// the baseline (pipelining won): per-message cost is below
			// the noise floor. Clamp α and fit β from the pooled means.
			if alpha < 0 {
				var sbb, sbt float64
				for _, g := range groups {
					sbb += g.b * g.b
					sbt += g.b * g.t
				}
				if sbb > 0 && sbt > 0 && sbt/sbb > 1/maxBeta {
					return 0, sbb / sbt, "contrast fit, α clamped to 0"
				}
			}
		}
	}

	// Single mix: hold α at the prior, fit 1/β from the remainder.
	alpha = alphaPrior
	trimmed := trimCells(cells)
	var sbb, num float64
	for _, c := range trimmed {
		sbb += c.b * c.b
		num += c.b * (c.t - alpha*c.m)
	}
	if sbb > 0 && num > 0 && num/sbb > 1/maxBeta {
		return alpha, sbb / num, "single-workload fit, α held at prior"
	}
	// The prior's α·m floor exceeds the measured cells (e.g. a hardware
	// prior against an in-process fabric): clamp α to 0 so β can fit.
	var sbt float64
	for _, c := range trimmed {
		sbt += c.b * c.t
	}
	if sbb > 0 && sbt > 0 && sbt/sbb > 1/maxBeta {
		return 0, sbb / sbt, "single-workload fit, α clamped to 0 (prior floor above measured cells)"
	}
	return alphaPrior, betaPrior, "degenerate cells, β held at prior"
}

// spanIters counts the distinct non-negative iterations in a trace.
func spanIters(spans []obs.Span) int {
	seen := make(map[int]bool)
	for _, s := range spans {
		if s.Iter >= 0 {
			seen[s.Iter] = true
		}
	}
	return len(seen)
}

// fitOverhead sets OverheadSec from the first ring sample: measured
// iteration wall time minus the fitted model's phase prediction.
func (f *Fitted) fitOverhead(samples []Sample) {
	for _, s := range samples {
		if s.Workload.Strategy != "ring" {
			continue
		}
		measured := s.iterSeconds()
		if measured <= 0 {
			continue
		}
		pl := &Planner{Fit: f, Workers: s.Workload.Workers, ModelBytes: s.Workload.ModelBytes, Ratio: s.Workload.Ratio}
		pred := pl.Predict(PlanOption{Strategy: "ring", ChunkFloats: s.Workload.ChunkFloats, Compress: s.Workload.Compress})
		if gap := measured - pred.PredIterSec; gap > 0 {
			f.OverheadSec = gap
		}
		f.Coverage = append(f.Coverage, fmt.Sprintf("overhead: %.3f ms per iteration unmodeled (measured %.3f ms, modeled %.3f ms)",
			f.OverheadSec*1e3, measured*1e3, pred.PredIterSec*1e3))
		return
	}
}

// maxReplayIters bounds how many iterations the calibration replay
// simulates per sample — the phase means converge after a handful.
const maxReplayIters = 6

// calibrateReplay replays every sample's workload through the fitted
// event simulator, diffs measured vs simulated with obs.Calibrate, and
// fills Scale, Residuals and MaxCommRelErr. Samples are offset onto
// disjoint iteration bands so their cells do not collide in the merged
// calibration. Compressed samples are skipped: their measured send
// spans carry inline codec time the replay deliberately does not model,
// and so are samples past crossCheckMaxWorkers.
func (f *Fitted) calibrateReplay(samples []Sample) {
	var measured, sim []obs.Span
	for si, s := range samples {
		if s.Workload.Compress {
			continue
		}
		iters := s.Workload.Iters - s.WarmupIters
		if s.Workload.Iters <= 0 {
			iters = spanIters(s.Spans) - s.WarmupIters
		}
		if iters > maxReplayIters {
			iters = maxReplayIters
		}
		if iters <= 0 || s.Workload.Workers > crossCheckMaxWorkers {
			continue
		}
		simSpans := f.ReplaySpans(s.Workload, iters)
		if simSpans == nil {
			continue
		}
		// Band-offset this sample's iterations: sample k lives in
		// [k·band, k·band+iters), post-warmup measured iterations mapped
		// onto the replay's 0-based ones.
		const band = 1 << 20
		for _, sp := range s.Spans {
			if sp.Iter < s.WarmupIters || sp.Iter >= s.WarmupIters+iters {
				continue
			}
			sp.Iter += si*band - s.WarmupIters
			measured = append(measured, sp)
		}
		for _, sp := range simSpans {
			sp.Iter += si * band
			sim = append(sim, sp)
		}
	}
	if len(measured) == 0 || len(sim) == 0 {
		return
	}
	cal := obs.Calibrate(measured, sim, trimFrac)
	f.Residuals = cal
	for _, pc := range cal.Phases {
		if pc.MeasuredMean > 0 && pc.SimMean > 0 {
			f.Scale[pc.Phase] = pc.MeasuredMean / pc.SimMean
		}
		if pc.Phase == obs.PhaseSend || pc.Phase == obs.PhaseReduce {
			if e := math.Abs(pc.RelErr); e > f.MaxCommRelErr {
				f.MaxCommRelErr = e
			}
		}
	}
}

// netParams returns the fitted cluster as workload w runs on it: a switch
// workload's chunking bounds the on-switch buffer.
func (f *Fitted) netParams(w Workload) netsim.Params {
	p := f.Params
	if w.Strategy == "switch" && w.ChunkFloats > 0 {
		p.SwitchMemBytes = int64(w.ChunkFloats) * 4
	}
	return p
}

// replay runs iters iterations of the workload through the fitted event
// simulator (eventsim.Replay), emitting the measured-run span schema into
// rec, and returns their summed virtual duration. The flows carry the
// workload's wire bytes (after compression) while the ring's reduction
// delay reproduces the measured reduce cell (see sumDelayPerStep).
func (f *Fitted) replay(w Workload, iters int, rec *obs.Recorder) (float64, error) {
	return eventsim.Replay(f.netParams(w), eventsim.Iteration{
		Strategy:        w.Strategy,
		Workers:         w.Workers,
		ModelBytes:      w.ModelBytes,
		Traffic:         w.traffic,
		SumDelayPerStep: f.sumDelayPerStep(w),
		Compute:         f.ComputeSec,
	}, iters, rec)
}

// ReplaySpans simulates iters iterations of the workload through the
// fitted event simulator and returns the emitted spans on a virtual
// timeline — the dynamic cross-check against a measured trace. Only the
// ring and switch strategies have span-emitting event models; other
// strategies return nil.
func (f *Fitted) ReplaySpans(w Workload, iters int) []obs.Span {
	tr := obs.NewTracer(1 << 18)
	if _, err := f.replay(w, iters, obs.NewRecorder(obs.NewRegistry(), tr)); err != nil {
		return nil
	}
	spans := tr.Snapshot()
	if w.Strategy == "ring" {
		// Measured ring send spans cover the whole per-step send call —
		// including the per-message handshake the α term models — while
		// the event simulator bills that cost as propagation latency
		// *outside* its send spans. Reconcile the span semantics here so
		// calibration compares like with like: each replayed step span
		// gains α per message it would have carried.
		alphaNs := int64(2 * f.Params.Latency * 1e9 * float64(w.chunksPerBlock()))
		for i := range spans {
			if spans[i].Phase == obs.PhaseSend {
				spans[i].Dur += alphaNs
			}
		}
	}
	return spans
}

// sumDelayPerStep returns the per-step reduction delay that reproduces
// the measured reduce cell under the replay's span structure: the event
// replay emits (p−2) reduce spans per node-iteration while the fitted γ
// was normalized to netsim's (p−1)-share structure.
func (f *Fitted) sumDelayPerStep(w Workload) float64 {
	if f.Params.SumRate <= 0 || w.Workers < 3 {
		if f.Params.SumRate <= 0 {
			return 0
		}
		return float64(w.blockBytes()) / f.Params.SumRate
	}
	cellSec := float64(w.Workers-1) * float64(w.blockBytes()) / f.Params.SumRate
	return cellSec / float64(w.Workers-2)
}

// Seconds formats a duration in seconds for renders.
func secondsStr(s float64) string { return time.Duration(s * 1e9).Round(time.Microsecond).String() }

// RenderFit writes the fitted parameter set, coverage report, per-phase
// scale factors and residual table.
func (f *Fitted) RenderFit(w io.Writer) {
	fmt.Fprintf(w, "fitted model (%d cells):\n", f.Cells)
	fmt.Fprintf(w, "  stream bandwidth β   %10.1f MB/s\n", f.Params.StreamEfficiency*f.Params.LineRate/1e6)
	fmt.Fprintf(w, "  per-message α        %10.1f µs   (netsim latency %.1f µs/hop)\n", 2*f.Params.Latency*1e6, f.Params.Latency*1e6)
	fmt.Fprintf(w, "  sum rate γ           %10.1f MB/s\n", f.Params.SumRate/1e6)
	fmt.Fprintf(w, "  switch combine       %10.1f MB/s\n", f.Params.SwitchSumRate/1e6)
	fmt.Fprintf(w, "  compute/iter         %13s\n", secondsStr(f.ComputeSec))
	if f.CodecRate > 0 {
		fmt.Fprintf(w, "  codec                %10.1f MB/s at %.2fx ratio\n", f.CodecRate/1e6, f.Ratio)
	}
	fmt.Fprintf(w, "  unmodeled overhead   %13s/iter\n", secondsStr(f.OverheadSec))
	fmt.Fprintf(w, "coverage:\n")
	for _, c := range f.Coverage {
		fmt.Fprintf(w, "  - %s\n", c)
	}
	if f.Residuals != nil {
		fmt.Fprintf(w, "residuals (fitted sim replay vs measured, per phase):\n")
		f.Residuals.Render(w)
		fmt.Fprintf(w, "per-phase eventsim scale factors:")
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if f.Scale[p] != 1 {
				fmt.Fprintf(w, " %s=%.2f", p.String(), f.Scale[p])
			}
		}
		fmt.Fprintf(w, "\nmax |rel err| on communication phases: %.1f%%\n", 100*f.MaxCommRelErr)
	}
}

// sortPlans orders plans by predicted iteration time, ties broken by
// the simpler configuration (no compression, no chunking first).
func sortPlans(plans []Plan) {
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].PredIterSec != plans[j].PredIterSec {
			return plans[i].PredIterSec < plans[j].PredIterSec
		}
		if plans[i].Compress != plans[j].Compress {
			return !plans[i].Compress
		}
		return plans[i].ChunkFloats < plans[j].ChunkFloats
	})
}
