package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"inceptionn/internal/bitio"
	"inceptionn/internal/compress/lz"
	"inceptionn/internal/compress/szlike"
	"inceptionn/internal/compress/truncate"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
	"inceptionn/internal/nic"
	"inceptionn/internal/stats"
	"inceptionn/internal/train"
	"inceptionn/internal/trainsim"
)

// Fig3 prints the model sizes and the fraction of training time spent in
// communication under the worker-aggregator baseline (paper Fig. 3).
func Fig3(w io.Writer, o Options) error {
	header(w, "Fig. 3a: Size of weights (or gradients) per exchange")
	for _, s := range models.Fig3Models() {
		mb := float64(s.ParamBytes) / (1 << 20)
		fmt.Fprintf(w, "  %-12s %6.0f MB  %s\n", s.Name, mb, barFor(mb, 525, 40))
	}

	header(w, "Fig. 3b: Communication share of training time (WA, 4+1 nodes, 10GbE)")
	cfg := trainsim.Default()
	for _, s := range models.Evaluated() {
		simShare := cfg.CommShare(s)
		paperShare := s.Breakdown.Communicate / s.Breakdown.Total()
		fmt.Fprintf(w, "  %-12s simulated %5.1f%%  paper %5.1f%%  %s\n",
			s.Name, 100*simShare, 100*paperShare, barFor(simShare, 1, 40))
	}
	return nil
}

// Fig5 trains the mini CNN (the AlexNet substitute) and prints gradient
// value histograms at early, middle, and final stages (paper Fig. 5).
func Fig5(w io.Writer, o Options) error {
	trainDS, testDS, opts := imagesTask(o)
	total := o.iters(400)
	at := []int{total / 20, total / 2, total}
	if at[0] < 1 {
		at[0] = 1
	}
	grads, err := collectGradients(models.NewMiniAlexNet, trainDS, testDS, opts, total, at)
	if err != nil {
		return err
	}
	labels := []string{"early", "middle", "final"}
	for i, iter := range at {
		g := grads[iter]
		header(w, fmt.Sprintf("Fig. 5 (%s): gradient distribution at iteration %d", labels[i], iter))
		h := stats.NewHistogram(-1, 1, 21)
		h.ObserveAll(g)
		fmt.Fprint(w, h.String())
		var sum stats.Summary
		sum.ObserveAll(g)
		fmt.Fprintf(w, "  mean %+.2e  std %.2e  min %+.3f  max %+.3f  within(-1,1) %.2f%%\n",
			sum.Mean(), sum.Std(), sum.MinV, sum.MaxV, 100*h.FractionWithin(-0.999, 0.999))
	}
	return nil
}

// Fig7 measures this repository's software codecs on a gradient-shaped
// buffer and prints the simulated total-training-time inflation of running
// them on the hosts (paper Fig. 7).
func Fig7(w io.Writer, o Options) error {
	header(w, "Fig. 7: software compression impact on total training time (WA baseline = 1.0)")

	// Live-measure the Go codecs on 8 MB of gradient-shaped floats.
	rng := rand.New(rand.NewSource(o.Seed))
	n := 2 << 20 // floats
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64() * 0.002)
	}
	raw := make([]byte, 4*n)
	for i, v := range vals {
		u := math.Float32bits(v)
		raw[4*i] = byte(u)
		raw[4*i+1] = byte(u >> 8)
		raw[4*i+2] = byte(u >> 16)
		raw[4*i+3] = byte(u >> 24)
	}
	mb := float64(len(raw)) / (1 << 20)

	measure := func(name string, lossless bool, comp func() float64, ratio float64) trainsim.SoftwareCodec {
		start := time.Now()
		r := comp()
		elapsed := time.Since(start).Seconds()
		if ratio > 0 {
			r = ratio
		}
		c := trainsim.SoftwareCodec{
			Name:           name,
			CompressMBps:   mb / elapsed,
			DecompressMBps: 2 * mb / elapsed, // decompression is ~2x faster across these codecs
			Ratio:          r,
			Lossless:       lossless,
		}
		fmt.Fprintf(w, "  measured %-8s  %7.0f MB/s compress, ratio %.2f\n", name, c.CompressMBps, c.Ratio)
		return c
	}

	snappy := measure("Snappy", true, func() float64 {
		enc := lz.Encode(nil, raw)
		return float64(len(raw)) / float64(len(enc))
	}, 0)
	sz := measure("SZ", false, func() float64 {
		c := szlike.MustNew(math.Ldexp(1, -10), 8)
		return c.Ratio(vals)
	}, 0)
	trunc := measure("16b-T", false, func() float64 {
		c := truncate.MustNew(16)
		bw := bitio.NewWriter(len(raw))
		c.Compress(bw, vals)
		return c.Ratio()
	}, 2)

	fmt.Fprintln(w)
	cfg := trainsim.Default()
	fmt.Fprintf(w, "  %-12s %10s %10s %10s %10s\n", "Model", "Base", "Snappy", "SZ", "16b-T")
	for _, spec := range []models.Spec{models.AlexNet, models.HDC} {
		fmt.Fprintf(w, "  %-12s %9.2fx", spec.Name, 1.0)
		for _, codec := range []trainsim.SoftwareCodec{snappy, sz, trunc} {
			fmt.Fprintf(w, " %9.2fx", cfg.Fig7Factor(spec, codec))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n  (>1.0 = slower than the uncompressed baseline; the paper reports 2-4x)")
	return nil
}

// Fig12 prints the normalized training time of the four systems on the
// four models (paper Fig. 12), split into computation and communication.
func Fig12(w io.Writer, o Options) error {
	header(w, "Fig. 12: training time, normalized to WA (computation + communication)")
	cfg := trainsim.Default()
	fmt.Fprintf(w, "  %-12s %-7s %9s %9s %9s %8s\n",
		"Model", "System", "compute", "comm", "total", "norm")
	for _, spec := range models.Evaluated() {
		base := cfg.IterTime(trainsim.WA, spec).Total()
		for _, sys := range trainsim.Systems() {
			b := cfg.IterTime(sys, spec)
			fmt.Fprintf(w, "  %-12s %-7s %8.4fs %8.4fs %8.4fs %7.3f  %s\n",
				spec.Name, sys, b.Compute, b.Exchange, b.Total(), b.Total()/base,
				barFor(b.Total()/base, 1, 30))
		}
		incRed := 1 - cfg.ExchangeTime(trainsim.INC, spec)/cfg.ExchangeTime(trainsim.WA, spec)
		inccRed := 1 - cfg.ExchangeTime(trainsim.INCC, spec)/cfg.ExchangeTime(trainsim.WA, spec)
		fmt.Fprintf(w, "  %-12s comm reduction: INC %.1f%%, INC+C %.1f%% (paper: 36-58%% and 70.9-80.7%%)\n\n",
			"", 100*incRed, 100*inccRed)
	}
	return nil
}

// Fig13 prints the speedup of the full system over the conventional one
// when both train to the same accuracy (paper Fig. 13).
func Fig13(w io.Writer, o Options) error {
	header(w, "Fig. 13: speedup at equal final accuracy (INC+C vs WA)")
	cfg := trainsim.Default()
	fmt.Fprintf(w, "  %-12s %8s %9s %9s %9s %10s\n",
		"Model", "acc", "epochsWA", "epochsINC", "speedup", "paper")
	paperSpeedup := map[string]string{
		"AlexNet": "3.1x", "HDC": "2.7x", "ResNet-50": "3.0x", "VGG-16": "2.2x",
	}
	for _, spec := range models.Evaluated() {
		s := cfg.SpeedupSameAccuracy(spec)
		fmt.Fprintf(w, "  %-12s %7.1f%% %9d %9d %8.2fx %10s\n",
			spec.Name, 100*spec.Conv.FinalAccuracy,
			spec.Conv.EpochsLossless, spec.Conv.EpochsCompressed, s, paperSpeedup[spec.Name])
	}

	// Real epoch-inflation measurement on the trainable HDC: train lossless
	// and compressed to a target accuracy, compare iteration counts.
	fmt.Fprintf(w, "\n  Measured epoch inflation (HDC on synthetic digits):\n")
	itersBase, itersComp, acc, err := measureEpochInflation(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  lossless reached %.1f%% in %d iters; compressed (2^-10) in %d iters (%.2fx)\n",
		100*acc, itersBase, itersComp, float64(itersComp)/float64(itersBase))

	return timeToAccuracy(w, o)
}

// timeToAccuracy combines real accuracy trajectories (WA vs INC+C on the
// HDC task) with the calibrated per-iteration times, producing the
// wall-clock-vs-accuracy comparison that underlies Fig. 13: the compressed
// ring may need a few more iterations, but each costs a fraction of a WA
// iteration.
func timeToAccuracy(w io.Writer, o Options) error {
	header(w, "Fig. 13 (derived): simulated time to accuracy, HDC task")
	cfg := trainsim.Default()
	waIter := cfg.IterTime(trainsim.WA, models.HDC).Total()
	incIter := cfg.IterTime(trainsim.INCC, models.HDC).Total()

	tds, eds, opts := digitsTask(o)
	total := o.iters(240)
	opts.EvalEvery = total / 8
	opts.Algo = train.WorkerAggregator

	waRes, err := train.Run(buildHDCForScale(o), tds, eds, total, opts)
	if err != nil {
		return err
	}
	opts.Algo = train.Ring
	opts.Processor = nic.Processor{Bound: fpcodec.MustBound(10)}
	opts.Compress = true
	incRes, err := train.Run(buildHDCForScale(o), tds, eds, total, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "  %-10s | %-28s | %-28s\n", "", "WA (lossless)", "INC+C (2^-10)")
	fmt.Fprintf(w, "  %-10s | %10s %15s | %10s %15s\n", "eval", "iter", "sim seconds", "iter", "sim seconds")
	for i := range waRes.Evals {
		wa := waRes.Evals[i]
		var incLine string
		if i < len(incRes.Evals) {
			inc := incRes.Evals[i]
			incLine = fmt.Sprintf("%10d %9.3fs %4.1f%%", inc.Iter, float64(inc.Iter)*incIter, 100*inc.Accuracy)
		}
		fmt.Fprintf(w, "  %-10d | %10d %9.3fs %4.1f%% | %s\n",
			i, wa.Iter, float64(wa.Iter)*waIter, 100*wa.Accuracy, incLine)
	}
	fmt.Fprintf(w, "  per-iteration cost: WA %.4fs, INC+C %.4fs (%.1fx cheaper)\n",
		waIter, incIter, waIter/incIter)
	return nil
}

// SwitchStrategy compares the in-network switch reduction (NetReduce-style
// per-port combine, arXiv:2009.09736) against the WA and ring exchanges,
// with a Fig. 13/14-style per-phase breakdown: transfer vs summation vs
// propagation on the critical path, per node count. A second table shows
// the combine engine throttled to a tenth of line rate — the regime where
// `inctrace blame` attributes the exchange to the switch itself.
func SwitchStrategy(w io.Writer, o Options) error {
	header(w, "In-network switch aggregation: exchange breakdown vs WA/ring")
	net := netsim.Default10GbE()
	rows := []struct{ name, strategy string }{
		{"wa", "worker-aggregator"}, {"ring", "ring"}, {"switch", "switch"},
	}
	for _, spec := range models.Evaluated() {
		fmt.Fprintf(w, "  %s (%d MB)\n", spec.Name, spec.ParamBytes>>20)
		fmt.Fprintf(w, "    %-6s %-8s %10s %10s %10s %10s\n",
			"nodes", "strategy", "transfer", "sum", "latency", "total")
		for _, nodes := range []int{4, 8, 16} {
			for _, r := range rows {
				ex, err := net.Exchange(netsim.Strategy{Name: r.strategy, Workers: nodes, ModelBytes: spec.ParamBytes})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "    %-6d %-8s %9.3fs %9.3fs %9.6fs %9.3fs\n",
					nodes, r.name, ex.Transfer, ex.Sum, ex.Latency, ex.Total())
			}
		}
		fmt.Fprintln(w)
	}

	header(w, "Throttled combine engine (SwitchSumRate = LineRate/10)")
	spec := models.AlexNet
	fmt.Fprintf(w, "  %s: switch exchange, combine-bound\n", spec.Name)
	fmt.Fprintf(w, "    %-6s %10s %10s %10s\n", "nodes", "transfer", "sum", "total")
	for _, nodes := range []int{4, 8, 16} {
		p := netsim.Default10GbE()
		p.SwitchSumRate = p.LineRate / 10
		ex, err := p.Exchange(netsim.Strategy{Name: "switch", Workers: nodes, ModelBytes: spec.ParamBytes})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "    %-6d %9.3fs %9.3fs %9.3fs\n", nodes, ex.Transfer, ex.Sum, ex.Total())
	}
	fmt.Fprintln(w, "\n  (blame a throttled run: incbench -simtrace sim.jsonl -sim-strategy switch \\")
	fmt.Fprintln(w, "     -sim-switch-rate 125e6 && inctrace blame -switch-node 4 sim.jsonl)")
	return nil
}

// Fig15 prints the gradient-exchange time versus cluster size for both
// algorithms (paper Fig. 15), plus the α-β-γ analytic model's prediction.
func Fig15(w io.Writer, o Options) error {
	header(w, "Fig. 15: gradient exchange time vs number of nodes (normalized to 4-node WA)")
	for _, spec := range models.Evaluated() {
		base := 0.0
		fmt.Fprintf(w, "  %s\n", spec.Name)
		fmt.Fprintf(w, "    %-6s %10s %10s %12s %12s\n", "nodes", "WA", "INC", "WA(analytic)", "INC(analytic)")
		for _, nodes := range []int{4, 6, 8} {
			cfg := trainsim.Default()
			cfg.Workers = nodes
			wa := cfg.ExchangeTime(trainsim.WA, spec)
			inc := cfg.ExchangeTime(trainsim.INC, spec)
			if nodes == 4 {
				base = wa
			}
			am := cfg.Net
			fmt.Fprintf(w, "    %-6d %9.3f  %9.3f  %11.3f  %11.3f\n",
				nodes, wa/base, inc/base,
				am.AnalyticWorkerAggregator(nodes, spec.ParamBytes)/am.AnalyticWorkerAggregator(4, spec.ParamBytes),
				am.AnalyticRing(nodes, spec.ParamBytes)/am.AnalyticWorkerAggregator(4, spec.ParamBytes))
		}
		fmt.Fprintln(w)
	}
	return nil
}
