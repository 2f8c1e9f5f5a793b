// Package models defines the paper's DNN workloads in two forms:
//
//   - Spec: the full-size model description (parameter bytes, Table I
//     hyperparameters, the paper's Table II measured time breakdown and
//     Fig. 13 convergence data). Specs drive every communication-volume
//     and training-time experiment exactly, because communication cost
//     depends only on the gradient/weight byte counts.
//   - Trainable builders (HDC plus Mini variants of the CNNs) used for the
//     accuracy experiments, which need a network that actually trains on a
//     CPU in this repository's synthetic datasets (see DESIGN.md §1).
package models

import (
	"fmt"
	"math/rand"

	"inceptionn/internal/nn"
)

// MB is one megabyte in bytes (the paper reports model sizes in MB).
const MB = 1 << 20

// Hyper is one row of the paper's Table I.
type Hyper struct {
	BatchPerNode int
	LR           float64
	LRFactor     float64 // divide LR by this ...
	LREvery      int     // ... every this many iterations
	Momentum     float64
	WeightDecay  float64
	Iterations   int
}

// Breakdown is one column of the paper's Table II: seconds per 100 training
// iterations on the five-node worker-aggregator testbed.
type Breakdown struct {
	Forward     float64
	Backward    float64
	GPUCopy     float64
	GradSum     float64
	Communicate float64
	Update      float64
}

// Total returns the summed wall-clock seconds per 100 iterations.
func (b Breakdown) Total() float64 {
	return b.Forward + b.Backward + b.GPUCopy + b.GradSum + b.Communicate + b.Update
}

// Convergence is the per-model data behind the paper's Fig. 13.
type Convergence struct {
	FinalAccuracy    float64 // fraction, e.g. 0.572
	EpochsLossless   int     // epochs for WA to reach FinalAccuracy
	EpochsCompressed int     // epochs for INC+C to reach the same accuracy
}

// Spec is a full-size model description.
type Spec struct {
	Name       string
	ParamBytes int64
	Hyper      Hyper
	Breakdown  Breakdown   // zero for models absent from Table II
	Conv       Convergence // zero for models absent from Fig. 13
}

// Params returns the number of float32 parameters.
func (s Spec) Params() int64 { return s.ParamBytes / 4 }

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("%s (%d MB)", s.Name, s.ParamBytes/MB)
}

// The paper's workloads. Model sizes from Sec. II/VII, hyperparameters from
// Table I, time breakdowns from Table II, convergence from Fig. 13.
var (
	AlexNet = Spec{
		Name:       "AlexNet",
		ParamBytes: 233 * MB,
		Hyper:      Hyper{BatchPerNode: 64, LR: 0.01, LRFactor: 10, LREvery: 100000, Momentum: 0.9, WeightDecay: 0.00005, Iterations: 320000},
		Breakdown:  Breakdown{Forward: 3.13, Backward: 16.22, GPUCopy: 5.68, GradSum: 8.94, Communicate: 148.71, Update: 13.67},
		Conv:       Convergence{FinalAccuracy: 0.572, EpochsLossless: 64, EpochsCompressed: 65},
	}
	HDC = Spec{
		Name:       "HDC",
		ParamBytes: int64(2.5 * MB),
		Hyper:      Hyper{BatchPerNode: 25, LR: 0.1, LRFactor: 5, LREvery: 2000, Momentum: 0.9, WeightDecay: 0.00005, Iterations: 10000},
		Breakdown:  Breakdown{Forward: 0.08, Backward: 0.07, GPUCopy: 0, GradSum: 0.09, Communicate: 1.36, Update: 0.09},
		Conv:       Convergence{FinalAccuracy: 0.985, EpochsLossless: 17, EpochsCompressed: 18},
	}
	ResNet50 = Spec{
		Name:       "ResNet-50",
		ParamBytes: 98 * MB,
		Hyper:      Hyper{BatchPerNode: 16, LR: 0.1, LRFactor: 10, LREvery: 200000, Momentum: 0.9, WeightDecay: 0.0001, Iterations: 600000},
		Breakdown:  Breakdown{Forward: 2.63, Backward: 4.87, GPUCopy: 2.24, GradSum: 3.68, Communicate: 60.58, Update: 1.55},
		Conv:       Convergence{FinalAccuracy: 0.753, EpochsLossless: 90, EpochsCompressed: 92},
	}
	VGG16 = Spec{
		Name:       "VGG-16",
		ParamBytes: 525 * MB,
		Hyper:      Hyper{BatchPerNode: 64, LR: 0.01, LRFactor: 10, LREvery: 100000, Momentum: 0.9, WeightDecay: 0.00005, Iterations: 370000},
		// Forward is 35.25 (not the OCR-garbled 32.25): only then does the
		// column sum to the paper's printed total 823.65 and match the
		// printed 4.3% share.
		Breakdown: Breakdown{Forward: 35.25, Backward: 142.34, GPUCopy: 12.09, GradSum: 19.89, Communicate: 583.58, Update: 30.50},
		Conv:      Convergence{FinalAccuracy: 0.715, EpochsLossless: 74, EpochsCompressed: 75},
	}
	// ResNet152 appears only in the paper's Fig. 3 size/communication chart.
	ResNet152 = Spec{
		Name:       "ResNet-152",
		ParamBytes: 230 * MB,
	}
)

// Evaluated returns the four models of the paper's evaluation section, in
// presentation order.
func Evaluated() []Spec { return []Spec{AlexNet, HDC, ResNet50, VGG16} }

// Fig3Models returns the models of the paper's Fig. 3 chart.
func Fig3Models() []Spec { return []Spec{AlexNet, ResNet152, VGG16} }

// NewHDC builds the paper's Handwritten Digit Classification network: five
// fully-connected layers with hidden dimension 500 and ReLU activations
// (Sec. VII-A), for 28×28 inputs and 10 classes.
func NewHDC(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewDense("fc1", 784, 500, rng),
		nn.NewReLU(),
		nn.NewDense("fc2", 500, 500, rng),
		nn.NewReLU(),
		nn.NewDense("fc3", 500, 500, rng),
		nn.NewReLU(),
		nn.NewDense("fc4", 500, 500, rng),
		nn.NewReLU(),
		nn.NewDense("fc5", 500, 10, rng),
	)
}

// NewHDCSmall builds a narrower HDC (hidden dimension 128) for fast unit
// tests and CI-scale experiments; same depth and topology as NewHDC.
func NewHDCSmall(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewDense("fc1", 784, 128, rng),
		nn.NewReLU(),
		nn.NewDense("fc2", 128, 128, rng),
		nn.NewReLU(),
		nn.NewDense("fc3", 128, 128, rng),
		nn.NewReLU(),
		nn.NewDense("fc4", 128, 128, rng),
		nn.NewReLU(),
		nn.NewDense("fc5", 128, 10, rng),
	)
}

// NewMiniAlexNet builds a CPU-trainable AlexNet-style CNN for 3×32×32
// inputs: stacked conv+ReLU+pool stages followed by dropout-regularized
// fully-connected layers — the structural substitution for full AlexNet
// documented in DESIGN.md §1.
func NewMiniAlexNet(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 16, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 16×16
		nn.NewConv2D("conv2", 16, 32, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 8×8
		nn.NewConv2D("conv3", 32, 64, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 4×4
		nn.NewFlatten(),
		nn.NewDropout(0.5, rng),
		nn.NewDense("fc1", 64*4*4, 128, rng),
		nn.NewReLU(),
		nn.NewDropout(0.5, rng),
		nn.NewDense("fc2", 128, 10, rng),
	)
}

// NewMiniAlexNetLRN is NewMiniAlexNet with AlexNet's local response
// normalization after the first two convolution stages — the historically
// faithful variant (slower; the plain variant is the default workload).
func NewMiniAlexNetLRN(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 16, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewLRN(),
		nn.NewMaxPool2D(2, 2), // 16×16
		nn.NewConv2D("conv2", 16, 32, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewLRN(),
		nn.NewMaxPool2D(2, 2), // 8×8
		nn.NewConv2D("conv3", 32, 64, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 4×4
		nn.NewFlatten(),
		nn.NewDropout(0.5, rng),
		nn.NewDense("fc1", 64*4*4, 128, rng),
		nn.NewReLU(),
		nn.NewDropout(0.5, rng),
		nn.NewDense("fc2", 128, 10, rng),
	)
}

// NewMiniVGG builds a VGG-style CNN (uniform 3×3 convolutions in blocks of
// two) for 3×32×32 inputs.
func NewMiniVGG(rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D("conv1a", 3, 16, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewConv2D("conv1b", 16, 16, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 16×16
		nn.NewConv2D("conv2a", 16, 32, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewConv2D("conv2b", 32, 32, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 8×8
		nn.NewFlatten(),
		nn.NewDense("fc1", 32*8*8, 128, rng),
		nn.NewReLU(),
		nn.NewDense("fc2", 128, 10, rng),
	)
}

// NewMiniResNet builds a ResNet-style CNN for 3×32×32 inputs: a stem
// convolution, residual blocks with batch normalization (one with a strided
// projection shortcut), global average pooling, and a linear classifier.
func NewMiniResNet(rng *rand.Rand) *nn.Network {
	block := func(name string, c int) nn.Layer {
		body := nn.NewNetwork(
			nn.NewConv2D(name+".c1", c, c, 3, 1, 1, rng),
			nn.NewBatchNorm2D(name+".bn1", c),
			nn.NewReLU(),
			nn.NewConv2D(name+".c2", c, c, 3, 1, 1, rng),
			nn.NewBatchNorm2D(name+".bn2", c),
		)
		return nn.NewResidual(body, nil)
	}
	downBlock := func(name string, in, out int) nn.Layer {
		body := nn.NewNetwork(
			nn.NewConv2D(name+".c1", in, out, 3, 2, 1, rng),
			nn.NewBatchNorm2D(name+".bn1", out),
			nn.NewReLU(),
			nn.NewConv2D(name+".c2", out, out, 3, 1, 1, rng),
			nn.NewBatchNorm2D(name+".bn2", out),
		)
		return nn.NewResidual(body, nn.NewConv2D(name+".proj", in, out, 1, 2, 0, rng))
	}
	return nn.NewNetwork(
		nn.NewConv2D("stem", 3, 16, 3, 1, 1, rng),
		nn.NewBatchNorm2D("stem.bn", 16),
		nn.NewReLU(),
		block("res1", 16),
		downBlock("res2", 16, 32), // 16×16
		block("res3", 32),
		nn.NewGlobalAvgPool2D(),
		nn.NewDense("fc", 32, 10, rng),
	)
}

// Builders maps trainable-model names to their constructors; used by the
// CLI tools and experiments.
var Builders = map[string]func(*rand.Rand) *nn.Network{
	"hdc":              NewHDC,
	"hdc-small":        NewHDCSmall,
	"mini-alexnet":     NewMiniAlexNet,
	"mini-alexnet-lrn": NewMiniAlexNetLRN,
	"mini-vgg":         NewMiniVGG,
	"mini-resnet":      NewMiniResNet,
}
