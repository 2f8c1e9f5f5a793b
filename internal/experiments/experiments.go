// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the index). Each experiment is
// a function that writes a plain-text report matching the corresponding
// paper artifact: same rows, same series, same comparisons. Absolute
// numbers come from this repository's simulated substrate and synthetic
// datasets; the shapes — who wins, by what factor, where the crossovers
// fall — are the reproduction targets (EXPERIMENTS.md records both).
package experiments

import (
	"fmt"
	"io"

	"inceptionn/internal/data"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks training iteration counts so the whole suite runs in
	// a few minutes; Full uses the larger counts recorded in
	// EXPERIMENTS.md.
	Quick bool
	// Seed makes every experiment deterministic.
	Seed int64
}

// iters scales an iteration budget by the quick/full mode.
func (o Options) iters(full int) int {
	if o.Quick {
		q := full / 4
		if q < 30 {
			q = 30
		}
		return q
	}
	return full
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	Name  string // registry key, e.g. "fig12"
	Title string // paper caption summary
	Run   func(w io.Writer, o Options) error
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig3", "Model sizes and communication-time share (Fig. 3)", Fig3},
		{"fig4", "Floating-point truncation vs training accuracy (Fig. 4)", Fig4},
		{"fig5", "Distribution of gradient values during training (Fig. 5)", Fig5},
		{"fig7", "Software lossless/lossy compression vs training time (Fig. 7)", Fig7},
		{"table1", "Hyperparameters of the benchmarks (Table I)", Table1},
		{"table2", "Training-time breakdown on the 5-node cluster (Table II)", Table2},
		{"fig12", "Training time of WA/WA+C/INC/INC+C (Fig. 12)", Fig12},
		{"fig13", "Speedup at equal accuracy (Fig. 13)", Fig13},
		{"fig14", "Compression ratio and accuracy impact (Fig. 14)", Fig14},
		{"table3", "Bitwidth distribution of compressed gradients (Table III)", Table3},
		{"fig15", "Scalability of the gradient exchange (Fig. 15)", Fig15},
		{"switch", "In-network switch aggregation vs WA/ring (NetReduce-style)", SwitchStrategy},
		{"ablation", "Design-choice ablations (DESIGN.md §5)", Ablations},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// digitsTask returns the standard HDC training task used by the accuracy
// experiments: synthetic digits train/test splits and baseline options.
func digitsTask(o Options) (data.Dataset, data.Dataset, train.Options) {
	trainDS := data.NewDigits(4000, o.Seed)
	testDS := data.NewDigits(600, o.Seed+1000)
	opts := train.Options{
		Workers:      4,
		Algo:         train.Ring,
		BatchPerNode: 16,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         o.Seed,
		EvalSamples:  600,
	}
	return trainDS, testDS, opts
}

// imagesTask returns the mini-CNN training task (the AlexNet substitute).
func imagesTask(o Options) (data.Dataset, data.Dataset, train.Options) {
	trainDS := data.NewImages(2000, o.Seed)
	testDS := data.NewImages(300, o.Seed+1000)
	opts := train.Options{
		Workers:      4,
		Algo:         train.Ring,
		BatchPerNode: 8,
		Schedule:     opt.StepSchedule{Base: 0.01, Factor: 10, Every: 400},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         o.Seed,
		EvalSamples:  300,
	}
	return trainDS, testDS, opts
}

// collectGradients trains briefly and returns sampled local gradient
// vectors at the requested iterations (1-based). The returned map is
// indexed by iteration.
func collectGradients(build train.Builder, trainDS, testDS data.Dataset,
	opts train.Options, totalIters int, at []int) (map[int][]float32, error) {

	want := make(map[int]bool, len(at))
	for _, it := range at {
		want[it] = true
	}
	out := make(map[int][]float32, len(at))
	opts.GradHook = func(iter int, grad []float32) {
		if want[iter+1] {
			out[iter+1] = append([]float32(nil), grad...)
		}
	}
	_, err := train.Run(build, trainDS, testDS, totalIters, opts)
	return out, err
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}

// barFor renders a proportional ASCII bar.
func barFor(value, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(float64(width) * value / max)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	bar := make([]byte, n)
	for i := range bar {
		bar[i] = '#'
	}
	return string(bar)
}
