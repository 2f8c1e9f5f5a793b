package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"inceptionn/internal/eventsim"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
	"inceptionn/internal/nic"
	"inceptionn/internal/trainsim"
)

// Ablations prints the design-choice studies listed in DESIGN.md §5.
func Ablations(w io.Writer, o Options) error {
	rng := rand.New(rand.NewSource(o.Seed))
	grads := make([]float32, 200000)
	for i := range grads {
		if rng.Intn(10) == 0 {
			grads[i] = float32(rng.NormFloat64() * 0.1)
		} else {
			grads[i] = float32(rng.NormFloat64() * 0.002)
		}
	}

	header(w, "Ablation A: engine burst width (lanes × 32b per cycle @ 100 MHz)")
	fmt.Fprintf(w, "  %-8s %14s %16s\n", "lanes", "input Gb/s", "vs 10GbE line")
	for _, lanes := range []int{4, 8, 16} {
		gbps := float64(lanes) * 32 * nic.ClockHz / 1e9
		verdict := "sustains line rate"
		if gbps < 10 {
			verdict = "THROTTLES the NIC"
		}
		marker := ""
		if lanes == nic.LanesPerBurst {
			marker = "  <- paper design"
		}
		fmt.Fprintf(w, "  %-8d %13.1f  %16s%s\n", lanes, gbps, verdict, marker)
	}

	header(w, "Ablation B: error-bound sweep (ratio vs guaranteed error)")
	fmt.Fprintf(w, "  %-8s %10s %14s %12s\n", "bound", "ratio", "max |error|", "avg bits")
	for e := 4; e <= 14; e += 2 {
		b := fpcodec.MustBound(e)
		var st fpcodec.TagStats
		st.Observe(grads, b)
		fmt.Fprintf(w, "  2^-%-5d %9.2fx %14.2e %12.2f\n",
			e, fpcodec.Ratio(grads, b), b.MaxError(), st.AverageBits())
	}

	header(w, "Ablation C: compression legs (why the ring algorithm multiplies the codec's value)")
	cfg := trainsim.Default()
	spec := models.AlexNet
	n := spec.ParamBytes
	ratio := trainsim.CompressionRatio(spec, cfg.BoundExp)
	wa := cfg.ExchangeTime(trainsim.WA, spec)
	waGradLeg := cfg.ExchangeTime(trainsim.WAC, spec)
	// Hypothetical: compressing the weight leg too (unsafe per Fig. 4) —
	// no strategy does this, so it is billed by hand.
	waBothLegs := cfg.Net.WorkerAggregator(cfg.Workers, n,
		netsim.NICCompressed(n, ratio), netsim.NICCompressed(n, ratio)).Total()
	ring := cfg.ExchangeTime(trainsim.INCC, spec)
	fmt.Fprintf(w, "  WA, no compression:            %8.4fs (1.00)\n", wa)
	fmt.Fprintf(w, "  WA, gradient leg only (legal): %8.4fs (%.2f)\n", waGradLeg, waGradLeg/wa)
	fmt.Fprintf(w, "  WA, both legs (UNSAFE for w):  %8.4fs (%.2f)\n", waBothLegs, waBothLegs/wa)
	fmt.Fprintf(w, "  Ring, both legs are gradients: %8.4fs (%.2f)  <- INCEPTIONN\n", ring, ring/wa)

	header(w, "Ablation D: codec placement (software host vs in-NIC offload)")
	for _, spec := range []models.Spec{models.AlexNet, models.HDC} {
		nicTime := cfg.IterTime(trainsim.INCC, spec).Total()
		// Software placement: the same ratio, but codec CPU time charged on
		// the hosts (sequentially with compute), modeled like Fig. 7.
		soft := cfg.SoftwareCompressedIterTime(spec, trainsim.SoftwareCodec{
			Name: "host-codec", CompressMBps: 400, DecompressMBps: 800, Ratio: ratio,
		}).Total()
		base := cfg.IterTime(trainsim.WA, spec).Total()
		fmt.Fprintf(w, "  %-12s WA %8.4fs | software codec %8.4fs (%.2fx) | in-NIC %8.4fs (%.2fx)\n",
			spec.Name, base, soft, base/soft, nicTime, base/nicTime)
	}

	header(w, "Ablation E: analytic vs simulated scalability (ResNet-50 exchange)")
	fmt.Fprintf(w, "  %-6s %12s %12s %12s %12s\n", "nodes", "sim WA", "sim INC", "analytic WA", "analytic INC")
	for _, nodes := range []int{4, 8, 16, 32} {
		c := trainsim.Default()
		c.Workers = nodes
		fmt.Fprintf(w, "  %-6d %11.3fs %11.3fs %11.3fs %11.3fs\n",
			nodes,
			c.ExchangeTime(trainsim.WA, models.ResNet50),
			c.ExchangeTime(trainsim.INC, models.ResNet50),
			c.Net.AnalyticWorkerAggregator(nodes, models.ResNet50.ParamBytes),
			c.Net.AnalyticRing(nodes, models.ResNet50.ParamBytes))
	}

	header(w, "Ablation F: Fig. 1 organizations at 16 workers (exchange time, ResNet-50)")
	c16 := trainsim.Default()
	c16.Workers = 16
	flat := c16.ExchangeTime(trainsim.WA, models.ResNet50)
	fmt.Fprintf(w, "  %-44s %9.3fs (1.00)\n", "Fig. 1a: flat worker-aggregator", flat)
	for _, compressed := range []bool{false, true} {
		suffix := ""
		if compressed {
			suffix = " + NIC compression"
		}
		tree := cfg.HierarchicalExchangeTime(models.ResNet50, 4, 4, true, compressed)
		rings := cfg.HierarchicalExchangeTime(models.ResNet50, 4, 4, false, compressed)
		fmt.Fprintf(w, "  %-44s %9.3fs (%.2f)\n",
			"Fig. 1b: rings under an aggregator"+suffix, tree, tree/flat)
		fmt.Fprintf(w, "  %-44s %9.3fs (%.2f)\n",
			"Fig. 1c: rings at every level"+suffix, rings, rings/flat)
	}
	flat16Ring := c16.ExchangeTime(trainsim.INC, models.ResNet50)
	fmt.Fprintf(w, "  %-44s %9.3fs (%.2f)\n",
		"flat 16-node ring (for reference)", flat16Ring, flat16Ring/flat)

	header(w, "Ablation G: straggler sensitivity (one worker delayed by d per send, event sim)")
	ep := eventsim.FromNet(cfg.Net)
	nBytes := float64(models.ResNet50.ParamBytes)
	fmt.Fprintf(w, "  %-10s %12s %12s %14s %14s\n", "delay d", "WA", "ring", "WA penalty", "ring penalty")
	waBase := eventsim.WorkerAggregatorTimeDelays(ep, 4, nBytes, nBytes, 0, nil)
	ringBase := eventsim.RingTimeDelays(ep, 4, nBytes/4, 0, nil)
	for _, d := range []float64{0, 0.05, 0.1, 0.2} {
		delays := []float64{0, 0, d, 0}
		wa := eventsim.WorkerAggregatorTimeDelays(ep, 4, nBytes, nBytes, 0, delays)
		rg := eventsim.RingTimeDelays(ep, 4, nBytes/4, 0, delays)
		fmt.Fprintf(w, "  %-10.2f %11.3fs %11.3fs %13.3fs %13.3fs\n",
			d, wa, rg, wa-waBase, rg-ringBase)
	}
	fmt.Fprintln(w, "  (the ring's critical chain crosses the straggler once per phase; the")
	fmt.Fprintln(w, "   aggregator's work-conserving incast absorbs most of the delay)")

	// Guard against silent drift: the ablation gradients must stay in the
	// codec's sweet spot or the numbers above are meaningless.
	var sanity fpcodec.TagStats
	sanity.Observe(grads, fpcodec.MustBound(10))
	if f := sanity.Fraction(fpcodec.TagNone); f > 0.01 {
		return fmt.Errorf("experiments: ablation gradient sample has %.1f%% out-of-range values", 100*f)
	}
	if math.IsNaN(fpcodec.Ratio(grads, fpcodec.MustBound(10))) {
		return fmt.Errorf("experiments: ratio is NaN")
	}
	return nil
}
