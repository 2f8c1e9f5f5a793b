// Package trainsim reproduces the paper's end-to-end training-time numbers
// by combining (a) the compute-time calibration taken from the paper's own
// Table II (forward/backward/copy/update seconds measured on the Titan Xp
// testbed — constants across the compared systems), (b) the network
// simulator in internal/netsim, and (c) the codec's measured compression
// ratios. It produces the data behind Fig. 3b, Table II's communication
// column, Fig. 12, Fig. 13, and Fig. 15.
package trainsim

import (
	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
)

// System identifies one of the four compared configurations of Fig. 12.
type System int

// The four systems of Fig. 12.
const (
	// WA is the conventional worker-aggregator baseline.
	WA System = iota
	// WAC is WA with in-NIC compression on the (only compressible)
	// gradient leg.
	WAC
	// INC is the INCEPTIONN gradient-centric algorithm without compression.
	INC
	// INCC is the full INCEPTIONN system: ring exchange + in-NIC
	// compression on both legs.
	INCC
)

// String implements fmt.Stringer using the paper's labels.
func (s System) String() string {
	switch s {
	case WA:
		return "WA"
	case WAC:
		return "WA+C"
	case INC:
		return "INC"
	default:
		return "INC+C"
	}
}

// Systems lists all four configurations in the paper's presentation order.
func Systems() []System { return []System{WA, WAC, INC, INCC} }

// TableIIIRow is the bitwidth distribution of compressed gradients for one
// model at one error bound — one row of the paper's Table III. Fractions
// are of {2, 10, 18, 34}-bit encodings (tag + data).
type TableIIIRow struct {
	F2, F10, F18, F34 float64
}

// AverageBits returns the mean encoded bits per gradient value.
func (r TableIIIRow) AverageBits() float64 {
	return 2*r.F2 + 10*r.F10 + 18*r.F18 + 34*r.F34
}

// Ratio returns the implied compression ratio (32 bits / average bits).
func (r TableIIIRow) Ratio() float64 { return 32 / r.AverageBits() }

// PaperTableIII holds the paper's measured bitwidth distributions,
// indexed by model name and error-bound exponent.
var PaperTableIII = map[string]map[int]TableIIIRow{
	"AlexNet": {
		10: {F2: 0.749, F10: 0.039, F18: 0.211, F34: 0.001},
		8:  {F2: 0.825, F10: 0.148, F18: 0.026, F34: 0.001},
		6:  {F2: 0.930, F10: 0.070, F18: 0.000, F34: 0.001},
	},
	"HDC": {
		10: {F2: 0.920, F10: 0.065, F18: 0.015, F34: 0.000},
		8:  {F2: 0.957, F10: 0.034, F18: 0.009, F34: 0.000},
		6:  {F2: 0.981, F10: 0.016, F18: 0.004, F34: 0.000},
	},
	"ResNet-50": {
		10: {F2: 0.816, F10: 0.179, F18: 0.005, F34: 0.000},
		8:  {F2: 0.923, F10: 0.077, F18: 0.001, F34: 0.000},
		6:  {F2: 0.976, F10: 0.024, F18: 0.000, F34: 0.000},
	},
	"VGG-16": {
		10: {F2: 0.942, F10: 0.009, F18: 0.049, F34: 0.000},
		8:  {F2: 0.962, F10: 0.038, F18: 0.000, F34: 0.000},
		6:  {F2: 0.973, F10: 0.027, F18: 0.000, F34: 0.000},
	},
}

// CompressionRatio returns the model's gradient compression ratio at the
// given error-bound exponent, derived from the paper's Table III. Models
// or bounds absent from the table fall back to a conservative ratio of 8.
func CompressionRatio(spec models.Spec, boundExp int) float64 {
	if rows, ok := PaperTableIII[spec.Name]; ok {
		if row, ok := rows[boundExp]; ok {
			return row.Ratio()
		}
	}
	return 8
}

// Config parameterizes the simulation.
type Config struct {
	Net      netsim.Params
	Workers  int
	BoundExp int // codec error-bound exponent for the +C systems
}

// Default returns the paper's setup: four workers, 10 GbE, bound 2^-10.
func Default() Config {
	return Config{Net: netsim.Default10GbE(), Workers: 4, BoundExp: 10}
}

// Breakdown is a simulated per-iteration time split (seconds).
type Breakdown struct {
	Compute  float64 // forward + backward + copy + update (calibrated)
	Exchange float64 // communication + distributed summation (simulated)
}

// Total returns the per-iteration wall-clock time.
func (b Breakdown) Total() float64 { return b.Compute + b.Exchange }

// computePerIter returns the calibrated local-computation seconds per
// iteration (Table II rows that do not involve the network or summation).
func computePerIter(spec models.Spec) float64 {
	b := spec.Breakdown
	return (b.Forward + b.Backward + b.GPUCopy + b.Update) / 100
}

// exchange simulates one exchange of the named netsim strategy for spec;
// compressed puts the model's in-NIC compression ratio on every gradient
// leg.
func (c Config) exchange(name string, spec models.Spec, workers, groupSize int, compressed bool) netsim.Exchange {
	s := netsim.Strategy{Name: name, Workers: workers, ModelBytes: spec.ParamBytes, GroupSize: groupSize}
	if compressed {
		ratio := CompressionRatio(spec, c.BoundExp)
		s.Gradient = func(n int64) netsim.Traffic { return netsim.NICCompressed(n, ratio) }
	}
	ex, err := c.Net.Exchange(s)
	if err != nil {
		// The names are fixed below; only a group size that does not
		// divide the workers — a caller's bug — gets here.
		panic(err)
	}
	return ex
}

// IterTime simulates one training iteration of the given system.
func (c Config) IterTime(sys System, spec models.Spec) Breakdown {
	name := "worker-aggregator"
	if sys == INC || sys == INCC {
		name = "ring"
	}
	ex := c.exchange(name, spec, c.Workers, 0, sys == WAC || sys == INCC)
	return Breakdown{Compute: computePerIter(spec), Exchange: ex.Total()}
}

// ExchangeTime simulates the gradient-exchange time only (communication +
// summation, no local compute) — the metric of Fig. 15.
func (c Config) ExchangeTime(sys System, spec models.Spec) float64 {
	return c.IterTime(sys, spec).Exchange
}

// HierarchicalExchangeTime simulates the Fig. 1b/1c organizations for
// groups×groupSize workers: tree selects the Fig. 1b aggregator level,
// compressed enables in-NIC compression on every gradient leg (the result
// broadcast stays uncompressed).
func (c Config) HierarchicalExchangeTime(spec models.Spec, groups, groupSize int, tree, compressed bool) float64 {
	name := "hierarchical-ring"
	if tree {
		name = "hierarchical-tree"
	}
	return c.exchange(name, spec, groups*groupSize, groupSize, compressed).Total()
}

// CommShare returns the fraction of iteration time spent in the exchange
// for the WA baseline — the paper's Fig. 3b / Table II headline.
func (c Config) CommShare(spec models.Spec) float64 {
	b := c.IterTime(WA, spec)
	return b.Exchange / b.Total()
}

// Speedup returns sys's end-to-end speedup over WA for the same number of
// epochs (Fig. 12's derived metric).
func (c Config) Speedup(sys System, spec models.Spec) float64 {
	return c.IterTime(WA, spec).Total() / c.IterTime(sys, spec).Total()
}

// SpeedupSameAccuracy returns the full-system speedup of INC+C over WA
// when both train to the same final accuracy (Fig. 13): INC+C runs the
// paper's measured 1-2 extra epochs.
func (c Config) SpeedupSameAccuracy(spec models.Spec) float64 {
	if spec.Conv.EpochsLossless == 0 {
		return c.Speedup(INCC, spec)
	}
	wa := c.IterTime(WA, spec).Total() * float64(spec.Conv.EpochsLossless)
	inc := c.IterTime(INCC, spec).Total() * float64(spec.Conv.EpochsCompressed)
	return wa / inc
}

// SoftwareCodec describes a software compression stack for the Fig. 7
// experiment: sustained codec throughput on gradient bytes and the
// achieved ratio on float32 gradient streams.
type SoftwareCodec struct {
	Name           string
	CompressMBps   float64
	DecompressMBps float64
	Ratio          float64
	Lossless       bool
}

// SoftwareCompressedIterTime simulates a WA iteration when compression
// runs in software on the hosts (Fig. 7): the gradient leg shrinks (both
// payload and packet count — software sends the already-compressed
// buffer), but the workers pay compression CPU time and the aggregator
// serially decompresses all p incoming streams — the paper's observation
// (3) that aggregators become the bottleneck.
func (c Config) SoftwareCompressedIterTime(spec models.Spec, codec SoftwareCodec) Breakdown {
	n := spec.ParamBytes
	mb := float64(n) / (1 << 20)
	workerCPU := mb / codec.CompressMBps
	aggregatorCPU := float64(c.Workers) * mb / codec.DecompressMBps
	ex := c.Net.WorkerAggregator(c.Workers, n,
		netsim.SoftwareCompressed(n, codec.Ratio), netsim.Plain(n))
	return Breakdown{
		Compute:  computePerIter(spec) + workerCPU,
		Exchange: ex.Total() + aggregatorCPU,
	}
}

// Fig7Factor returns total-training-time inflation (>1 means slower) of
// software compression vs the uncompressed WA baseline.
func (c Config) Fig7Factor(spec models.Spec, codec SoftwareCodec) float64 {
	base := c.IterTime(WA, spec).Total()
	soft := c.SoftwareCompressedIterTime(spec, codec).Total()
	return soft / base
}
