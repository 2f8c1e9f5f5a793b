package tune

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
	"inceptionn/internal/train"
)

// AutoOptions configure AutoTune's probe-and-fit protocol.
type AutoOptions struct {
	// ProbeIters is how many iterations each probe run trains
	// (default 16, of which the first probeWarmup are dropped from the
	// fit). Three probes run: a plain whole-block ring (the baseline β-γ
	// and compute fit), a plain chunked ring whose marginal messages pin
	// the per-message α via the paired-contrast estimator, and — when the
	// options carry a wire processor — a compressed one fitting the codec
	// rate and measured ratio.
	ProbeIters int
}

// probeWarmup is how many leading iterations each probe drops from the
// fit (cold-start transients).
const probeWarmup = 2

// verifyIters is the length of each verification run of the
// score-then-verify pass.
const verifyIters = 8

// AutoResult is everything AutoTune learned: the fitted model, the
// ranked plans at the run's scale, the winning plan, and the what-if
// extrapolation.
type AutoResult struct {
	Workload Workload `json:"workload"`
	Fit      *Fitted  `json:"fit"`
	Plans    []Plan   `json:"plans"`
	Chosen   Plan     `json:"chosen"`
	WhatIf   []WhatIf `json:"what_if"`
	// ProbeSeconds is the wall-clock cost of the probe and
	// verification runs.
	ProbeSeconds float64 `json:"probe_seconds"`
}

// Render writes the human form of the full tune report.
func (r *AutoResult) Render(w io.Writer) {
	r.Fit.RenderFit(w)
	fmt.Fprintf(w, "\nranked plans (%d workers, %d MB model):\n", r.Workload.Workers, r.Workload.ModelBytes>>20)
	RenderPlans(w, r.Plans, 8)
	fmt.Fprintf(w, "\nwhat-if scaling (weak scaling, hierarchical trees in the sweep):\n")
	RenderWhatIf(w, r.WhatIf)
	fmt.Fprintf(w, "\nchosen: %s", r.Chosen.PlanOption)
	if r.Chosen.MeasuredIterSec > 0 {
		fmt.Fprintf(w, " (verified %s/iter measured)", secondsStr(r.Chosen.MeasuredIterSec))
	}
	fmt.Fprintln(w)
}

// AutoTune closes the loop for one run: short probe runs on the real
// runner, a model fit from their traces, a plan sweep, and the winning
// plan returned alongside the options to train with. The caller's
// options select the environment (workers, model, batch, processor,
// stragglers); the probe overrides the exchange configuration only.
func AutoTune(build train.Builder, trainDS, testDS data.Dataset, o train.Options, ao AutoOptions) (*AutoResult, train.Options, error) {
	if ao.ProbeIters <= 0 {
		ao.ProbeIters = 16
	}
	modelBytes := build(rand.New(rand.NewSource(o.Seed))).SizeBytes()

	probe := func(compress bool, chunk int) (Sample, error) {
		po := o
		po.Algo = train.Ring
		po.ChunkSize = chunk
		po.SwitchChunk = 0
		po.Compress = compress
		if !compress {
			po.Processor = nil
		}
		po.EvalEvery = 0 // no accuracy evals inside a probe
		po.Chaos = nil
		reg := obs.NewRegistry()
		tr := obs.NewTracer(1 << 17)
		po.Obs = obs.NewRecorder(reg, tr)
		t0 := time.Now()
		res, err := train.Run(build, trainDS, testDS, ao.ProbeIters, po)
		if err != nil {
			return Sample{}, fmt.Errorf("tune: probe run (compress=%v chunk=%d): %w", compress, chunk, err)
		}
		wall := time.Since(t0).Seconds()
		w := Workload{
			Workers:     o.Workers,
			ModelBytes:  modelBytes,
			Strategy:    "ring",
			ChunkFloats: chunk,
			Compress:    compress,
			Iters:       ao.ProbeIters,
		}
		if compress && res.WireBytes > 0 && res.RawBytes > 0 {
			w.Ratio = float64(res.RawBytes) / float64(res.WireBytes)
		}
		return Sample{Workload: w, Spans: tr.Snapshot(), IterSeconds: wall / float64(ao.ProbeIters), WarmupIters: probeWarmup}, nil
	}

	t0 := time.Now()
	samples := make([]Sample, 0, 3)
	plain, err := probe(false, 0)
	if err != nil {
		return nil, o, err
	}
	samples = append(samples, plain)
	// A chunked probe carries the same bytes split over more messages;
	// its marginal cost over the whole-block baseline is what pins α.
	if chunk := int(modelBytes/4) / (4 * o.Workers); chunk > 0 {
		chunked, err := probe(false, chunk)
		if err != nil {
			return nil, o, err
		}
		samples = append(samples, chunked)
	}
	if o.Processor != nil {
		comp, err := probe(true, 0)
		if err != nil {
			return nil, o, err
		}
		samples = append(samples, comp)
	}
	probeSec := time.Since(t0).Seconds()

	// The zero prior is netsim.Default10GbE(): the values the probes
	// cannot observe.
	fit, err := Fit(samples, netsim.Params{})
	if err != nil {
		return nil, o, err
	}
	pl := &Planner{
		Fit:        fit,
		Workers:    o.Workers,
		ModelBytes: modelBytes,
		NoCompress: o.Processor == nil,
	}
	plans := pl.Rank(pl.Candidates())

	// Score-then-verify: measure every plan the model scored within
	// verifyMargin of its best and choose the measured winner. The
	// model's job is pruning the candidate space (it sees compression's
	// codec tax and chunking's message tax); the verify pass settles
	// near-ties the α-β model cannot discriminate at testbed scale, where
	// per-step scheduler synchronization — invisible to a wire model —
	// separates strategies by more than their predicted gap. Warmup
	// iterations stay in each run's wall clock — the bias is the same for
	// every candidate, and only the ordering matters here.
	chosen := plans[0]
	limit := plans[0].PredIterSec * (1 + verifyMargin)
	t1 := time.Now()
	for i := range plans {
		if plans[i].PredIterSec > limit {
			break // plans are sorted by prediction
		}
		vo := Apply(o, plans[i])
		vo.EvalEvery = 0
		vo.Chaos = nil
		vo.Obs = nil
		v0 := time.Now()
		if _, err := train.Run(build, trainDS, testDS, verifyIters, vo); err != nil {
			return nil, o, fmt.Errorf("tune: verify run %s: %w", plans[i].PlanOption, err)
		}
		plans[i].MeasuredIterSec = time.Since(v0).Seconds() / float64(verifyIters)
		if plans[i].MeasuredIterSec < chosen.MeasuredIterSec || chosen.MeasuredIterSec == 0 {
			chosen = plans[i]
		}
	}
	probeSec += time.Since(t1).Seconds()

	res := &AutoResult{
		Workload:     plain.Workload,
		Fit:          fit,
		Plans:        plans,
		Chosen:       chosen,
		WhatIf:       pl.WhatIf(DefaultWhatIfNodes),
		ProbeSeconds: probeSec,
	}
	return res, Apply(o, res.Chosen), nil
}

// verifyMargin is the prediction band the verify pass measures: plans
// predicted within this fraction of the model's best are near-ties the
// closed-form model cannot settle, so a short measured run does.
const verifyMargin = 0.10

// Apply returns the options with the plan's exchange configuration
// installed (strategy, chunking, compression). Compression is only
// applied when the options carry a wire processor.
func Apply(o train.Options, p Plan) train.Options {
	switch p.Strategy {
	case "ring":
		o.Algo = train.Ring
		o.ChunkSize = p.ChunkFloats
	case "worker-aggregator":
		o.Algo = train.WorkerAggregator
	case "switch":
		o.Algo = train.SwitchReduce
		o.SwitchChunk = p.ChunkFloats
	case "hierarchical-tree":
		o.Algo = train.HierarchicalTree
		o.GroupSize = p.GroupSize
	case "hierarchical-ring":
		o.Algo = train.HierarchicalRing
		o.GroupSize = p.GroupSize
	}
	o.Compress = p.Compress && o.Processor != nil
	return o
}

// MetaFor builds the self-describing trace line for a tuned run.
func (r *AutoResult) MetaFor(applied Workload) Meta {
	chosen := r.Chosen.PlanOption
	return Meta{
		Version:       1,
		Workload:      applied,
		Chosen:        &chosen,
		PredIterSec:   r.Chosen.PredIterSec,
		Params:        &r.Fit.Params,
		MaxCommRelErr: r.Fit.MaxCommRelErr,
	}
}

// PublishGauges exports the decision and fitted parameters as obs
// gauges on the run's recorder, so the run's saved metrics snapshot
// (-metrics-out) shows what the tuner decided and from what model.
func (r *AutoResult) PublishGauges(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Gauge("tune_pred_iter_seconds").Set(r.Chosen.PredIterSec)
	rec.Gauge("tune_chunk_floats").Set(float64(r.Chosen.ChunkFloats))
	rec.Gauge("tune_compress").Set(b2f(r.Chosen.Compress))
	rec.Gauge("tune_strategy_" + r.Chosen.Strategy).Set(1)
	rec.Gauge("tune_fit_stream_bw_bytes_per_s").Set(r.Fit.Params.StreamEfficiency * r.Fit.Params.LineRate)
	rec.Gauge("tune_fit_sum_rate_bytes_per_s").Set(r.Fit.Params.SumRate)
	rec.Gauge("tune_fit_latency_seconds").Set(r.Fit.Params.Latency)
	rec.Gauge("tune_fit_compute_seconds").Set(r.Fit.ComputeSec)
	rec.Gauge("tune_fit_max_comm_rel_err").Set(r.Fit.MaxCommRelErr)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
