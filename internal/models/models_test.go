package models

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"inceptionn/internal/data"
	"inceptionn/internal/nn"
	"inceptionn/internal/tensor"
)

func TestTableIIBreakdownTotals(t *testing.T) {
	// Totals from the paper's Table II.
	cases := []struct {
		spec Spec
		want float64
	}{
		{AlexNet, 196.35}, {HDC, 1.69}, {ResNet50, 75.55}, {VGG16, 823.65},
	}
	for _, c := range cases {
		if got := c.spec.Breakdown.Total(); math.Abs(got-c.want) > 0.015 {
			t.Errorf("%s: Total = %g, want %g", c.spec.Name, got, c.want)
		}
	}
}

func TestCommunicationShareOver70Percent(t *testing.T) {
	// The paper's headline observation: >70% of training time is
	// communication for every evaluated model.
	for _, s := range Evaluated() {
		share := s.Breakdown.Communicate / s.Breakdown.Total()
		if share < 0.70 {
			t.Errorf("%s: communication share = %.1f%%, paper reports >70%%", s.Name, 100*share)
		}
	}
}

func TestSpecParams(t *testing.T) {
	if AlexNet.Params() != 233*MB/4 {
		t.Errorf("AlexNet params = %d", AlexNet.Params())
	}
	if got := VGG16.ParamBytes; got != 525*MB {
		t.Errorf("VGG16 bytes = %d", got)
	}
}

func TestConvergenceEpochInflationSmall(t *testing.T) {
	// Fig. 13: compressed training needs only 1-2 extra epochs.
	for _, s := range Evaluated() {
		extra := s.Conv.EpochsCompressed - s.Conv.EpochsLossless
		if extra < 1 || extra > 2 {
			t.Errorf("%s: %d extra epochs, paper reports 1-2", s.Name, extra)
		}
	}
}

func TestHDCArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewHDC(rng)
	// Five dense layers: 784·500 + 500 + 3×(500·500+500) + 500·10 + 10.
	want := 784*500 + 500 + 3*(500*500+500) + 500*10 + 10
	if got := net.NumParams(); got != want {
		t.Errorf("HDC params = %d, want %d", got, want)
	}
	x := tensor.New(2, 784)
	out := net.Forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Errorf("HDC output shape %v", out.Shape)
	}
}

func TestMiniModelsForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sce nn.SoftmaxCrossEntropy
	for name, build := range Builders {
		if name == "hdc" || name == "hdc-small" {
			continue
		}
		net := build(rng)
		x := tensor.New(2, 3, 32, 32)
		x.FillRandn(rng, 1)
		out := net.Forward(x, true)
		if out.Shape[0] != 2 || out.Shape[1] != 10 {
			t.Errorf("%s: output shape %v", name, out.Shape)
			continue
		}
		net.ZeroGrads()
		_, grad := sce.Loss(out, []int{3, 7})
		net.Backward(grad)
		// Every parameter must receive some gradient signal.
		dead := 0
		for _, p := range net.Params() {
			if !slices.ContainsFunc(p.G.Data, func(g float32) bool { return g != 0 }) {
				dead++
			}
		}
		if dead > len(net.Params())/2 {
			t.Errorf("%s: %d of %d parameters received zero gradient", name, dead, len(net.Params()))
		}
	}
}

func TestMiniModelsDeterministicInit(t *testing.T) {
	a := NewMiniAlexNet(rand.New(rand.NewSource(7)))
	b := NewMiniAlexNet(rand.New(rand.NewSource(7)))
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different init")
		}
	}
}

// TestFlatViewsAreLiveInEveryModel: for every trainable builder — so for
// every layer kind the Mini models and HDC are made of — each parameter
// computes with what Weights() holds and accumulates into what Grads()
// holds. A layer that kept a tensor header over a parameter's storage from
// before the network re-homed it would fail here, one parameter by name.
func TestFlatViewsAreLiveInEveryModel(t *testing.T) {
	var sce nn.SoftmaxCrossEntropy
	for name, build := range Builders {
		rng := rand.New(rand.NewSource(5))
		net := build(rng)
		x, labels := tensor.New(2, 3, 32, 32), []int{3, 7}
		if name == "hdc" || name == "hdc-small" {
			x = tensor.New(2, 784)
		}
		x.FillRandn(rng, 1)

		// Evaluation mode: no dropout draw, and batch norm does not cancel
		// the bias of the convolution under it.
		base := net.Forward(x, false).Clone()
		off := 0
		for _, p := range net.Params() {
			span := net.Weights()[off : off+p.W.Len()]
			off += len(span)
			saved := append([]float32(nil), span...)
			for i := range span {
				span[i] += 0.5
			}
			out := net.Forward(x, false)
			changed := false
			for i := range out.Data {
				changed = changed || out.Data[i] != base.Data[i]
			}
			if !changed {
				t.Errorf("%s: Forward ignored a write to %s through Weights()", name, p.Name)
			}
			copy(span, saved)
		}

		net.ZeroGrads()
		_, dlogits := sce.Loss(net.Forward(x, true), labels)
		net.Backward(dlogits)
		once := append([]float32(nil), net.Grads()...)
		net.Backward(dlogits) // same cached forward pass: the sums double
		off, dead := 0, 0
		for _, p := range net.Params() {
			g1, g2 := once[off:off+p.W.Len()], net.Grads()[off:off+p.W.Len()]
			off += len(g1)
			var peak float64
			for i := range g1 {
				peak = math.Max(peak, math.Abs(float64(g1[i])))
				if d := math.Abs(float64(g2[i]) - 2*float64(g1[i])); d > 1e-4*(math.Abs(float64(g1[i]))+1) {
					t.Errorf("%s: %s[%d] is %g after one backward pass and %g after two: not accumulated into Grads()", name, p.Name, i, g1[i], g2[i])
					break
				}
			}
			if peak == 0 {
				dead++
			}
		}
		if dead > len(net.Params())/2 {
			t.Errorf("%s: Grads() stayed zero for %d of %d parameters", name, dead, len(net.Params()))
		}
	}
}

func TestEvaluatedOrder(t *testing.T) {
	names := []string{"AlexNet", "HDC", "ResNet-50", "VGG-16"}
	for i, s := range Evaluated() {
		if s.Name != names[i] {
			t.Errorf("Evaluated()[%d] = %s, want %s", i, s.Name, names[i])
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := AlexNet.String(); got != "AlexNet (233 MB)" {
		t.Errorf("String = %q", got)
	}
}

func TestFig3Models(t *testing.T) {
	specs := Fig3Models()
	if len(specs) != 3 || specs[1].Name != "ResNet-152" {
		t.Errorf("Fig3Models = %v", specs)
	}
}

func TestBuildersRegistryComplete(t *testing.T) {
	for _, name := range []string{"hdc", "hdc-small", "mini-alexnet", "mini-alexnet-lrn", "mini-vgg", "mini-resnet"} {
		if Builders[name] == nil {
			t.Errorf("builder %q missing", name)
		}
	}
}

func TestHDCSmallSharesTopologyWithHDC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := NewHDCSmall(rng)
	big := NewHDC(rng)
	// Same layer count and same depth of learnable layers.
	if len(small.Layers) != len(big.Layers) {
		t.Errorf("layer counts differ: %d vs %d", len(small.Layers), len(big.Layers))
	}
	if len(small.Params()) != len(big.Params()) {
		t.Errorf("param tensor counts differ: %d vs %d", len(small.Params()), len(big.Params()))
	}
}

// TestNonFiniteValuesPoisonTheStep is DESIGN.md §8's IEEE contract checked
// end to end: a NaN or +Inf in a first-layer weight or in one input element
// — a diverging replica — must reach the logits, the loss and that layer's
// weight gradient instead of being laundered on the way. Before ReLU and
// MaxPool2D passed NaN through, every case below ended on 40 finite logits,
// a finite loss and a finite gradient.
func TestNonFiniteValuesPoisonTheStep(t *testing.T) {
	nonFinite := func(vals []float32) (n int) {
		for _, v := range vals {
			if v != v || math.IsInf(float64(v), 0) {
				n++
			}
		}
		return n
	}
	var sce nn.SoftmaxCrossEntropy
	for _, m := range []struct {
		name  string
		build func(*rand.Rand) *nn.Network
		ds    data.Dataset
	}{
		{"hdc-small", NewHDCSmall, data.NewDigits(16, 1)},
		{"mini-alexnet", NewMiniAlexNet, data.NewImages(16, 1)},
	} {
		for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
			for _, where := range []string{"weight", "input"} {
				net := m.build(rand.New(rand.NewSource(3)))
				b := data.MakeBatch(m.ds, []int{0, 1, 2, 3})
				first := net.Params()[0]
				target := first.W.Data
				if where == "input" {
					target = b.X.Data
				}
				target[len(target)/2] = poison

				net.ZeroGrads()
				logits := net.Forward(b.X, true)
				loss, dlogits := sce.Loss(logits, b.Labels)
				net.Backward(dlogits)
				if nonFinite(logits.Data) == 0 || !(math.IsNaN(loss) || math.IsInf(loss, 0)) || nonFinite(first.G.Data) == 0 {
					t.Errorf("%s, %g in one %s: %d of %d logits non-finite, loss %g, %d non-finite entries in %s's gradient",
						m.name, poison, where, nonFinite(logits.Data), logits.Len(), loss, nonFinite(first.G.Data), first.Name)
				}
			}
		}
	}
}
