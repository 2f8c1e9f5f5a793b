package experiments

import (
	"fmt"
	"io"

	"inceptionn/internal/comm"
	"inceptionn/internal/compress/truncate"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/gradgen"
	"inceptionn/internal/models"
	"inceptionn/internal/train"
	"inceptionn/internal/trainsim"
)

// Fig4 reproduces the truncation study (paper Fig. 4): train with x LSBs
// of the gradients only, the weights only, or both truncated, and report
// the resulting accuracy. The paper's finding: gradients tolerate
// aggressive truncation; weights do not (especially for the CNN).
func Fig4(w io.Writer, o Options) error {
	header(w, "Fig. 4: truncation of w and/or g vs training accuracy")

	runTask := func(label string, isImages bool) error {
		var opts train.Options
		var build train.Builder
		var iters int
		tds, eds, baseOpts := digitsTask(o)
		if isImages {
			tds, eds, baseOpts = imagesTask(o)
			build = models.NewMiniAlexNet
			iters = o.iters(400)
		} else {
			build = buildHDCForScale(o)
			iters = o.iters(240)
		}
		opts = baseOpts

		configs := []struct {
			name string
			drop int
			onG  bool
			onW  bool
		}{
			{"no truncation", 0, false, false},
			{"16b-T g only", 16, true, false},
			{"16b-T w only", 16, false, true},
			{"16b-T w & g", 16, true, true},
			{"22b-T g only", 22, true, false},
			{"22b-T w only", 22, false, true},
			{"22b-T w & g", 22, true, true},
			{"24b-T g only", 24, true, false},
			{"24b-T w only", 24, false, true},
			{"24b-T w & g", 24, true, true},
		}
		fmt.Fprintf(w, "  %s (%d iterations)\n", label, iters)
		for _, c := range configs {
			oc := opts
			if c.drop > 0 {
				codec := truncate.MustNew(c.drop)
				if c.onG {
					oc.LocalGradTransform = codec.ApplyAll
				}
				if c.onW {
					oc.WeightTransform = codec.ApplyAll
				}
			}
			res, err := train.Run(build, tds, eds, iters, oc)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "    %-16s accuracy %5.1f%%  %s\n",
				c.name, 100*res.FinalAcc, barFor(res.FinalAcc, 1, 30))
		}
		fmt.Fprintln(w)
		return nil
	}

	if err := runTask("HDC (synthetic digits)", false); err != nil {
		return err
	}
	// The CNN task is the paper's AlexNet panel; it is several times more
	// expensive, so quick mode keeps it short via o.iters.
	return runTask("MiniAlexNet (synthetic images; AlexNet substitute)", true)
}

// Fig14 reproduces the compression-ratio and accuracy comparison (paper
// Fig. 14): naive truncation vs the INCEPTIONN codec at three error
// bounds, measured on real gradient streams and real training runs.
func Fig14(w io.Writer, o Options) error {
	header(w, "Fig. 14a: average compression ratio on gradient streams")

	// Paper-derived ratios for the full-size models (via Table III).
	fmt.Fprintf(w, "  %-12s %8s %8s %8s %8s %8s %8s\n",
		"Model", "16b-T", "22b-T", "24b-T", "INC-10", "INC-8", "INC-6")
	for _, spec := range models.Evaluated() {
		fmt.Fprintf(w, "  %-12s %7.1fx %7.1fx %7.1fx", spec.Name, 2.0, 3.2, 4.0)
		for _, e := range []int{10, 8, 6} {
			fmt.Fprintf(w, " %7.1fx", trainsim.CompressionRatio(spec, e))
		}
		fmt.Fprintln(w, "   (paper Table III)")
	}

	// Full-size models, measured end to end: streams synthesized from the
	// paper's Table III class fractions (internal/gradgen) run through the
	// real encoder.
	for _, spec := range models.Evaluated() {
		rows := trainsim.PaperTableIII[spec.Name]
		fmt.Fprintf(w, "  %-12s %7s %7s %7s", spec.Name+"*", "-", "-", "-")
		for _, e := range []int{10, 8, 6} {
			row := rows[e]
			g, err := gradgen.FromTableIII(e, row.F2, row.F10, row.F18, row.F34, o.Seed+int64(e))
			if err != nil {
				return err
			}
			stream := g.Stream(100000)
			fmt.Fprintf(w, " %7.1fx", fpcodec.Ratio(stream, fpcodec.MustBound(e)))
		}
		fmt.Fprintln(w, "   (synthesized from Table III, real encoder)")
	}

	// Measured on real HDC gradients from this repository's training.
	tds, eds, opts := digitsTask(o)
	iters := o.iters(240)
	grads, err := collectGradients(buildHDCForScale(o), tds, eds, opts, iters,
		[]int{iters / 4, iters / 2, iters})
	if err != nil {
		return err
	}
	var all []float32
	for _, g := range grads {
		all = append(all, g...)
	}
	fmt.Fprintf(w, "  %-12s %7.1fx %7.1fx %7.1fx", "HDC(meas)", 2.0, 3.2, 4.0)
	for _, e := range []int{10, 8, 6} {
		fmt.Fprintf(w, " %7.1fx", fpcodec.Ratio(all, fpcodec.MustBound(e)))
	}
	fmt.Fprintln(w, "   (measured)")

	header(w, "Fig. 14b: relative accuracy after training with each scheme (HDC)")
	base, err := train.Run(buildHDCForScale(o), tds, eds, iters, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-12s accuracy %5.1f%% (relative 1.000)\n", "Base", 100*base.FinalAcc)

	report := func(name string, oc train.Options) error {
		res, err := train.Run(buildHDCForScale(o), tds, eds, iters, oc)
		if err != nil {
			return err
		}
		rel := res.FinalAcc / base.FinalAcc
		fmt.Fprintf(w, "  %-12s accuracy %5.1f%% (relative %.3f)  %s\n",
			name, 100*res.FinalAcc, rel, barFor(rel, 1, 30))
		return nil
	}
	for _, drop := range []int{16, 22, 24} {
		oc := opts
		oc.LocalGradTransform = truncate.MustNew(drop).ApplyAll
		if err := report(fmt.Sprintf("%db-T", drop), oc); err != nil {
			return err
		}
	}
	for _, e := range []int{10, 8, 6} {
		oc := opts
		oc.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(e)}
		oc.Compress = true
		if err := report(fmt.Sprintf("INC(2^-%d)", e), oc); err != nil {
			return err
		}
	}
	return nil
}

// measureEpochInflation trains HDC lossless and compressed to the same
// accuracy target and returns the iteration counts (Fig. 13's measured
// counterpart).
func measureEpochInflation(o Options) (itersBase, itersComp int, target float64, err error) {
	tds, eds, opts := digitsTask(o)
	total := o.iters(300)
	opts.EvalEvery = total / 15
	if opts.EvalEvery < 5 {
		opts.EvalEvery = 5
	}

	base, err := train.Run(buildHDCForScale(o), tds, eds, total, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	target = base.FinalAcc * 0.97

	firstReach := func(res train.Result) int {
		for _, p := range res.Evals {
			if p.Accuracy >= target {
				return p.Iter
			}
		}
		return total
	}
	itersBase = firstReach(base)

	opts.Processor = comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	opts.Compress = true
	comp, err := train.Run(buildHDCForScale(o), tds, eds, total, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	itersComp = firstReach(comp)
	return itersBase, itersComp, target, nil
}
