package tune

import (
	"fmt"
	"io"

	"inceptionn/internal/netsim"
)

// PlanOption is one point of the strategy × chunk × compression search
// space. Strategy names match train.Algorithm.String(): "ring",
// "worker-aggregator", "hierarchical-tree", "hierarchical-ring",
// "switch". ChunkFloats is ring.Options.ChunkSize for the ring-family
// strategies and train.Options.SwitchChunk for the switch.
type PlanOption struct {
	Strategy    string `json:"strategy"`
	ChunkFloats int    `json:"chunk_floats,omitempty"`
	Compress    bool   `json:"compress,omitempty"`
	GroupSize   int    `json:"group_size,omitempty"`
}

// String renders a compact plan label, e.g. "ring/chunk4096/comp".
func (o PlanOption) String() string {
	s := o.Strategy
	if o.GroupSize > 0 {
		s += fmt.Sprintf("/g%d", o.GroupSize)
	}
	if o.ChunkFloats > 0 {
		s += fmt.Sprintf("/chunk%d", o.ChunkFloats)
	} else {
		s += "/whole"
	}
	if o.Compress {
		s += "/comp"
	} else {
		s += "/plain"
	}
	return s
}

// Plan is a ranked candidate: the option plus its predicted timings.
type Plan struct {
	PlanOption
	// PredIterSec is the predicted wall-clock seconds per training
	// iteration (compute + exchange + codec + fitted overhead) — the
	// ranking key.
	PredIterSec float64 `json:"pred_iter_seconds"`
	// PredExchangeSec is the exchange's share (transport + reduction
	// after pipelining overlap).
	PredExchangeSec float64 `json:"pred_exchange_seconds"`
	// PredCodecSec is the codec CPU share before overlap.
	PredCodecSec float64 `json:"pred_codec_seconds,omitempty"`
	// CrossCheckSec is the fluid-flow event simulator's independent
	// prediction for the same plan (0 = strategy has no event model, or
	// the plan was not cross-checked).
	CrossCheckSec float64 `json:"crosscheck_iter_seconds,omitempty"`
}

// Planner sweeps plan options through a fitted model at one scale.
type Planner struct {
	Fit        *Fitted
	Workers    int
	ModelBytes int64
	// Ratio overrides the compression ratio assumed for compressed
	// candidates (0 = the fitted ratio, then DefaultRatio).
	Ratio float64
	// NoCompress drops compressed candidates from Candidates() — set
	// when the runner has no wire processor to compress with.
	NoCompress bool
	// SkipCrossCheck disables the event-simulator cross-check in Rank.
	// Set for what-if extrapolation sweeps: the fluid-flow replay's cost
	// grows superlinearly with node count, and at simulated scales the
	// closed-form ranking is the product.
	SkipCrossCheck bool
}

// ringChunkGrid is the ChunkSize sweep for the ring-family strategies
// (floats; 0 = whole-block steps).
var ringChunkGrid = []int{0, 1 << 10, 1 << 12, 1 << 14}

// switchChunkGrid is the SwitchChunk sweep (floats; 0 = whole gradient,
// bounded only by the prior's switch memory).
var switchChunkGrid = []int{0, 1 << 14}

// Candidates enumerates the search space at the planner's scale: every
// strategy the runners implement × its chunk grid × compression on/off,
// with hierarchical group sizes over the divisors of the worker count.
func (pl *Planner) Candidates() []PlanOption {
	comp := []bool{false}
	if !pl.NoCompress {
		comp = append(comp, true)
	}
	var out []PlanOption
	for _, c := range comp {
		for _, chunk := range ringChunkGrid {
			out = append(out, PlanOption{Strategy: "ring", ChunkFloats: chunk, Compress: c})
		}
		out = append(out, PlanOption{Strategy: "worker-aggregator", Compress: c})
		for _, chunk := range switchChunkGrid {
			out = append(out, PlanOption{Strategy: "switch", ChunkFloats: chunk, Compress: c})
		}
		for _, g := range groupSizes(pl.Workers) {
			out = append(out, PlanOption{Strategy: "hierarchical-tree", GroupSize: g, Compress: c})
			out = append(out, PlanOption{Strategy: "hierarchical-ring", GroupSize: g, Compress: c})
		}
	}
	return out
}

// groupSizes returns the usable hierarchical group sizes for p workers:
// proper divisors g with 2 <= g <= p/2 (both levels need >= 2 members).
func groupSizes(p int) []int {
	var out []int
	for g := 2; g <= p/2; g++ {
		if p%g == 0 {
			out = append(out, g)
		}
	}
	return out
}

// Predict runs one plan option through the fitted closed-form model.
//
// The transport/summation structure is netsim.Params.Exchange's on the
// fitted parameters; on top of it the planner accounts what only it knows:
// (a) the per-message cost α of chunked transports, (b) the codec's CPU
// time, and (c) chunk pipelining: with K chunks per step the codec and
// reduction overlap the transport, so a step costs
// max(parts) + (sum−max)/K instead of the serial sum (fill-and-drain).
func (pl *Planner) Predict(opt PlanOption) Plan {
	f := pl.Fit
	w := pl.workload(opt)
	p := f.netParams(w)
	ex, err := p.Exchange(netsim.Strategy{Name: opt.Strategy, Workers: pl.Workers,
		ModelBytes: pl.ModelBytes, GroupSize: opt.GroupSize, Gradient: w.traffic})
	if err != nil {
		return Plan{PlanOption: opt, PredIterSec: inf}
	}

	transport := ex.Transfer + ex.Latency
	var pipeChunks int64 = 1
	switch opt.Strategy {
	case "ring":
		// netsim's Latency term bills α (=2·Latency) once per step;
		// chunking multiplies the per-message cost by K.
		pipeChunks = w.chunksPerBlock()
		transport = ex.Transfer + ex.Latency*float64(pipeChunks)
	case "switch":
		pipeChunks = (pl.ModelBytes + p.SwitchMem() - 1) / p.SwitchMem()
	}
	codec := 0.0
	if opt.Compress {
		codec = codecBytes(w, opt.GroupSize) / pl.effCodecRate()
	}

	exchange := overlap(transport, ex.Sum+codec, pipeChunks)
	return Plan{
		PlanOption:      opt,
		PredIterSec:     f.ComputeSec + exchange + f.OverheadSec,
		PredExchangeSec: exchange,
		PredCodecSec:    codec,
	}
}

// codecBytes returns the raw bytes the busiest worker pushes through the
// codec in one iteration: the payload of every gradient leg it sends. In
// the flat strategies every worker sends alike; in the hierarchical ones
// the busiest worker is a group leader, billed its 2(g−1) intra-group
// ring blocks plus one whole gradient for the leader exchange (exact for
// the tree's up leg, a floor for the leader ring's 2(G−1) blocks).
// Without a group size a hierarchical workload has no count and returns 0.
func codecBytes(w Workload, groupSize int) float64 {
	n := float64(w.ModelBytes)
	switch w.Strategy {
	case "ring":
		return float64(2*(w.Workers-1)) * float64(w.blockBytes())
	case "hierarchical-tree", "hierarchical-ring":
		if groupSize < 2 {
			return 0
		}
		return float64(2*(groupSize-1))*float64(netsim.RingBlockBytes(w.ModelBytes, groupSize)) + n
	}
	return n // worker-aggregator, switch: the whole gradient, once
}

const inf = 1e18

// overlap models chunk pipelining: with k chunks in flight the smaller
// of the transport and CPU (reduce+codec) sides hides behind the larger
// except for a 1/k fill-and-drain remainder. k == 1 is fully serial.
func overlap(transport, cpu float64, k int64) float64 {
	if k <= 1 {
		return transport + cpu
	}
	hi, lo := transport, cpu
	if lo > hi {
		hi, lo = lo, hi
	}
	return hi + lo/float64(k)
}

// Rank predicts every option, sorts by predicted iteration time, and
// cross-checks the best crossCheckTop plans on the fluid-flow event
// simulator.
func (pl *Planner) Rank(opts []PlanOption) []Plan {
	plans := make([]Plan, 0, len(opts))
	for _, o := range opts {
		plans = append(plans, pl.Predict(o))
	}
	sortPlans(plans)
	if !pl.SkipCrossCheck && pl.Workers <= crossCheckMaxWorkers {
		for i := 0; i < len(plans) && i < crossCheckTop; i++ {
			plans[i].CrossCheckSec = pl.CrossCheck(plans[i].PlanOption)
		}
	}
	return plans
}

// crossCheckMaxWorkers bounds the dynamic cross-check, and the fit's
// calibration replay, to testbed scales: the fluid-flow simulator's
// water-filling is superlinear in concurrent flows, and at hundreds of
// nodes a single ring replay would dominate the planning time for no
// decision value (on a 2-vCPU box a fit's replay took ~6 s at 256
// workers, ~60 ms at 64).
const crossCheckMaxWorkers = 64

// crossCheckTop is how many top-ranked plans get the dynamic eventsim
// cross-check.
const crossCheckTop = 3

// WhatIf is one row of the scale extrapolation table.
type WhatIf struct {
	Nodes int `json:"nodes"`
	// Best is the winning plan at this scale.
	Best Plan `json:"best"`
	// RingSec / SwitchSec / TreeSec are the per-strategy bests for
	// comparison (hierarchical covers both tree and ring organisations,
	// FireCaffe-style, over the group-size sweep).
	RingSec   float64 `json:"ring_seconds"`
	SwitchSec float64 `json:"switch_seconds"`
	TreeSec   float64 `json:"hierarchical_seconds"`
}

// DefaultWhatIfNodes is the standard extrapolation ladder: from testbed
// scale into the 100s–1000s the paper's co-design argument targets.
var DefaultWhatIfNodes = []int{8, 32, 128, 512, 1024}

// WhatIf re-runs the sweep at simulated scales, assuming weak scaling
// (per-node compute and gradient size fixed — more nodes shard more
// data, the model stays put). For each scale it reports the best plan
// overall and the per-strategy bests, with hierarchical reduction trees
// searched over the divisor group sizes.
func (pl *Planner) WhatIf(nodes []int) []WhatIf {
	if len(nodes) == 0 {
		nodes = DefaultWhatIfNodes
	}
	var out []WhatIf
	for _, n := range nodes {
		if n < 2 {
			continue
		}
		sub := &Planner{Fit: pl.Fit, Workers: n, ModelBytes: pl.ModelBytes, Ratio: pl.Ratio, NoCompress: pl.NoCompress, SkipCrossCheck: true}
		plans := sub.Rank(sub.Candidates())
		row := WhatIf{Nodes: n, Best: plans[0], RingSec: inf, SwitchSec: inf, TreeSec: inf}
		for _, p := range plans {
			switch p.Strategy {
			case "ring":
				if p.PredIterSec < row.RingSec {
					row.RingSec = p.PredIterSec
				}
			case "switch":
				if p.PredIterSec < row.SwitchSec {
					row.SwitchSec = p.PredIterSec
				}
			case "hierarchical-tree", "hierarchical-ring":
				if p.PredIterSec < row.TreeSec {
					row.TreeSec = p.PredIterSec
				}
			}
		}
		if row.TreeSec == inf {
			row.TreeSec = 0 // no valid group size at this scale
		}
		out = append(out, row)
	}
	return out
}

// RenderPlans writes the ranked plan table.
func RenderPlans(w io.Writer, plans []Plan, top int) {
	if top <= 0 || top > len(plans) {
		top = len(plans)
	}
	fmt.Fprintf(w, "%-34s %14s %14s %14s\n", "plan", "pred iter", "exchange", "eventsim")
	for i := 0; i < top; i++ {
		p := plans[i]
		cc := "-"
		if p.CrossCheckSec > 0 {
			cc = secondsStr(p.CrossCheckSec)
		}
		marker := "  "
		if i == 0 {
			marker = "> "
		}
		fmt.Fprintf(w, "%s%-32s %14s %14s %14s\n", marker, p.PlanOption.String(),
			secondsStr(p.PredIterSec), secondsStr(p.PredExchangeSec), cc)
	}
}

// RenderWhatIf writes the scale-extrapolation table.
func RenderWhatIf(w io.Writer, rows []WhatIf) {
	fmt.Fprintf(w, "%-7s %-34s %14s %14s %14s %14s\n",
		"nodes", "best plan", "pred iter", "ring", "switch", "hierarchical")
	for _, r := range rows {
		tree := "-"
		if r.TreeSec > 0 {
			tree = secondsStr(r.TreeSec)
		}
		fmt.Fprintf(w, "%-7d %-34s %14s %14s %14s %14s\n",
			r.Nodes, r.Best.PlanOption.String(), secondsStr(r.Best.PredIterSec),
			secondsStr(r.RingSec), secondsStr(r.SwitchSec), tree)
	}
}
