package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"inceptionn/internal/tensor"
)

// numericalGrad estimates dLoss/dtheta by central differences for a single
// scalar parameter location.
func numericalGrad(loss func() float64, theta *float32) float64 {
	const eps = 1e-3
	orig := *theta
	*theta = orig + eps
	up := loss()
	*theta = orig - eps
	down := loss()
	*theta = orig
	return (up - down) / (2 * eps)
}

// checkLayerGradients drives a layer with a scalar loss sum(out²)/2 and
// compares analytic parameter and input gradients against numerical ones.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	lossOf := func() float64 {
		out := layer.Forward(x, true)
		var s float64
		for _, v := range out.Data {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}
	out := layer.Forward(x, true)
	dout := out.Clone() // dL/dout = out for our quadratic loss
	for _, p := range layer.Params() {
		clear(p.G.Data)
	}
	dx := layer.Backward(dout)

	for _, p := range layer.Params() {
		n := p.W.Len()
		stride := n/5 + 1
		for i := 0; i < n; i += stride {
			want := numericalGrad(lossOf, &p.W.Data[i])
			got := float64(p.G.Data[i])
			if math.Abs(got-want) > tol*(math.Abs(want)+1) {
				t.Errorf("%s[%d]: analytic %g, numerical %g", p.Name, i, got, want)
			}
		}
	}
	stride := x.Len()/5 + 1
	for i := 0; i < x.Len(); i += stride {
		want := numericalGrad(lossOf, &x.Data[i])
		got := float64(dx.Data[i])
		if math.Abs(got-want) > tol*(math.Abs(want)+1) {
			t.Errorf("dx[%d]: analytic %g, numerical %g", i, got, want)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 6, 4, rng)
	x := tensor.New(3, 6)
	x.FillRandn(rng, 1)
	checkLayerGradients(t, d, x, 1e-2)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("conv", 2, 3, 3, 1, 1, rng)
	x := tensor.New(2, 2, 5, 5)
	x.FillRandn(rng, 1)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestConvStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("conv", 1, 2, 3, 2, 0, rng)
	x := tensor.New(1, 1, 7, 7)
	x.FillRandn(rng, 1)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewMaxPool2D(2, 2)
	x := tensor.New(2, 2, 4, 4)
	// Well-separated values avoid argmax ties that break finite differences.
	perm := rng.Perm(x.Len())
	for i := range x.Data {
		x.Data[i] = float32(perm[i]) * 0.1
	}
	checkLayerGradients(t, p, x, 1e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewGlobalAvgPool2D()
	x := tensor.New(2, 3, 4, 4)
	x.FillRandn(rng, 1)
	checkLayerGradients(t, p, x, 1e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	nan := float32(math.NaN())
	x := tensor.FromSlice([]float32{-1, 2, 0, 3, nan}, 1, 5)
	out := r.Forward(x, true)
	want := []float32{0, 2, 0, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("forward[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
	dout := tensor.FromSlice([]float32{10, 10, 10, 10, 10}, 1, 5)
	dx := r.Backward(dout)
	wantDx := []float32{0, 10, 0, 10, 10}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("backward[%d] = %g, want %g", i, dx.Data[i], wantDx[i])
		}
	}
	// NaN is passed through with its gradient, never rectified to zero.
	if out.Data[4] == out.Data[4] {
		t.Fatalf("forward[4] = %g, want NaN", out.Data[4])
	}
}

// TestMaxPoolPropagatesNaN: a NaN is its window's maximum wherever it sits
// (`>` alone finds it only in the first position), and the gradient routes
// to it.
func TestMaxPoolPropagatesNaN(t *testing.T) {
	nan := float32(math.NaN())
	for pos := 0; pos < 4; pos++ {
		x := tensor.FromSlice([]float32{1, 4, 2, 3}, 1, 1, 2, 2)
		x.Data[pos] = nan
		p := NewMaxPool2D(2, 2)
		if out := p.Forward(x, true); out.Data[0] == out.Data[0] {
			t.Errorf("NaN at window position %d: max = %g, want NaN", pos, out.Data[0])
		}
		dx := p.Backward(tensor.FromSlice([]float32{7}, 1, 1, 1, 1))
		if dx.Data[pos] != 7 {
			t.Errorf("NaN at window position %d: gradient went to %v", pos, dx.Data)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.New(4, 3, 2, 2)
	x.FillRandn(rng, 1)
	checkLayerGradients(t, bn, x, 5e-2)
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 3, 3)
	x.FillRandn(rng, 3)
	for i := range x.Data {
		x.Data[i] += 5 // shifted input
	}
	out := bn.Forward(x, true)
	// Per-channel mean ~0, var ~1 after normalization with gamma=1, beta=0.
	plane := 9
	for c := 0; c < 2; c++ {
		var mean float64
		count := 0
		for b := 0; b < 8; b++ {
			data := out.Data[(b*2+c)*plane : (b*2+c+1)*plane]
			for _, v := range data {
				mean += float64(v)
				count++
			}
		}
		mean /= float64(count)
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean = %g", c, mean)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D("bn", 1)
	x := tensor.New(4, 1, 2, 2)
	for i := 0; i < 50; i++ {
		x.FillRandn(rng, 2)
		bn.Forward(x, true)
	}
	// In eval mode the same input twice must give identical output, and the
	// output must not be exactly batch-normalized (running stats differ).
	x.FillRandn(rng, 2)
	a := bn.Forward(x, false)
	b := bn.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval mode not deterministic")
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDropout(0.5, rng)
	x := tensor.New(1, 10000)
	x.Fill(1)
	out := d.Forward(x, true)
	zeros, kept := 0, 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else {
			if math.Abs(float64(v)-2) > 1e-6 {
				t.Fatalf("kept value %g, want 2 (inverted dropout)", v)
			}
			kept++
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Errorf("dropped %d of 10000 at p=0.5", zeros)
	}
	evalOut := d.Forward(x, false)
	for _, v := range evalOut.Data {
		if v != 1 {
			t.Fatal("eval mode must be identity")
		}
	}
	_ = kept
}

func TestFlattenRoundtrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	out := f.Forward(x, true)
	if out.Shape[0] != 2 || out.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", out.Shape)
	}
	back := f.Backward(out)
	if len(back.Shape) != 4 || back.Shape[3] != 5 {
		t.Fatalf("unflatten shape %v", back.Shape)
	}
}

// TestFirstLayerSkipsInputGradient pins the one gradient a network leaves
// out: its first Dense or Conv2D returns nil from Backward, and the
// parameter gradients are bit-identical to those of the same layers run
// one by one outside a network, where every layer returns ∂L/∂input. A
// layer second in a network, a Residual body's first layer and a nested
// network's first layer still compute theirs.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	models := map[string]func(rng *rand.Rand) []Layer{
		"conv first": func(rng *rand.Rand) []Layer {
			return []Layer{NewConv2D("c1", 2, 3, 3, 1, 1, rng), NewReLU(), NewConv2D("c2", 3, 3, 3, 2, 1, rng),
				NewReLU(), NewFlatten(), NewDense("fc", 3*3*3, 4, rng)}
		},
		"dense first": func(rng *rand.Rand) []Layer {
			return []Layer{NewDense("fc1", 2*5*5, 6, rng), NewReLU(), NewDense("fc2", 6, 4, rng)}
		},
	}
	for name, build := range models {
		x := tensor.New(3, 2, 5, 5)
		x.FillRandn(rand.New(rand.NewSource(17)), 1)
		if name == "dense first" {
			x = x.Reshape(3, 2*5*5)
		}
		dout := tensor.New(3, 4)
		dout.FillRandn(rand.New(rand.NewSource(18)), 1)

		chain := build(rand.New(rand.NewSource(16)))
		y := x
		for _, l := range chain {
			y = l.Forward(y, true)
		}
		d := dout
		for i := len(chain) - 1; i >= 0; i-- {
			if d = chain[i].Backward(d); d == nil {
				t.Fatalf("%s: standalone layer %d returned no input gradient", name, i)
			}
		}

		net := NewNetwork(build(rand.New(rand.NewSource(16)))...)
		net.Forward(x, true)
		if dx := net.Backward(dout); dx != nil {
			t.Errorf("%s: Network.Backward returned a %v input gradient, want nil", name, dx.Shape)
		}
		var want []*Param
		for _, l := range chain {
			want = append(want, l.Params()...)
		}
		for i, p := range net.Params() {
			for j, g := range p.G.Data {
				if math.Float32bits(g) != math.Float32bits(want[i].G.Data[j]) {
					t.Fatalf("%s: %s.G[%d] = %g in the network, %g in the chain", name, p.Name, j, g, want[i].G.Data[j])
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(19))
	res := NewResidual(NewNetwork(NewConv2D("b1", 2, 2, 3, 1, 1, rng), NewReLU()), nil)
	NewNetwork(res, NewReLU())
	x := tensor.New(1, 2, 4, 4)
	x.FillRandn(rng, 1)
	if dx := res.Backward(res.Forward(x, true)); dx == nil || res.Body.Layers[0].(*Conv2D).first {
		t.Error("a Residual body's first layer computes no input gradient")
	}

	inner := NewNetwork(NewDense("in1", 3, 3, rng), NewReLU())
	outer := NewNetwork(NewDense("out1", 3, 3, rng), inner)
	if inner.Layers[0].(*Dense).first || !outer.Layers[0].(*Dense).first {
		t.Error("a nested network's first layer is marked first, or the outer network's is not")
	}
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	body := NewNetwork(
		NewConv2D("c1", 2, 2, 3, 1, 1, rng),
		NewReLU(),
		NewConv2D("c2", 2, 2, 3, 1, 1, rng),
	)
	res := NewResidual(body, nil)
	x := tensor.New(1, 2, 4, 4)
	x.FillRandn(rng, 0.5)
	checkLayerGradients(t, res, x, 3e-2)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	body := NewNetwork(
		NewConv2D("c1", 2, 4, 3, 2, 1, rng),
	)
	proj := NewConv2D("proj", 2, 4, 1, 2, 0, rng)
	res := NewResidual(body, proj)
	x := tensor.New(1, 2, 4, 4)
	x.FillRandn(rng, 0.5)
	checkLayerGradients(t, res, x, 3e-2)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := tensor.New(3, 5)
	logits.FillRandn(rng, 1)
	labels := []int{1, 4, 0}
	var sce SoftmaxCrossEntropy
	_, grad := sce.Loss(logits, labels)
	for i := range logits.Data {
		want := numericalGrad(func() float64 {
			l, _ := sce.Loss(logits, labels)
			return l
		}, &logits.Data[i])
		if math.Abs(float64(grad.Data[i])-want) > 1e-3 {
			t.Errorf("grad[%d]: analytic %g, numerical %g", i, grad.Data[i], want)
		}
	}
}

func TestSoftmaxLossValueUniform(t *testing.T) {
	// Uniform logits: loss = ln(classes).
	logits := tensor.New(2, 10)
	var sce SoftmaxCrossEntropy
	loss, _ := sce.Loss(logits, []int{3, 7})
	if math.Abs(loss-math.Log(10)) > 1e-6 {
		t.Fatalf("uniform loss = %g, want ln10 = %g", loss, math.Log(10))
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		0.1, 0.9, 0.0,
		2.0, 1.0, 1.5,
	}, 2, 3)
	pred := Predict(logits)
	if pred[0] != 1 || pred[1] != 0 {
		t.Fatalf("Predict = %v", pred)
	}
	if acc := Accuracy(logits, []int{1, 2}); math.Abs(acc-0.5) > 1e-9 {
		t.Fatalf("Accuracy = %g", acc)
	}
}

// TestNetworkVectorRoundtrip pins the arena contract on a small MLP: the
// flat views are the parameters' own storage, concatenated in layer order
// (the order checkpoints and the pinned-arithmetic constants were written
// in), so a write through either side is visible through the other.
func TestNetworkVectorRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fc1, fc2 := NewDense("fc1", 4, 8, rng), NewDense("fc2", 8, 3, rng)
	var want []float32 // the layer-order concatenation, taken before re-homing
	for _, l := range []Layer{fc1, fc2} {
		for _, p := range l.Params() {
			want = append(want, p.W.Data...)
		}
	}
	net := NewNetwork(fc1, NewReLU(), fc2)
	if net.NumParams() != 4*8+8+8*3+3 {
		t.Fatalf("NumParams = %d", net.NumParams())
	}
	if net.SizeBytes() != int64(4*net.NumParams()) {
		t.Fatalf("SizeBytes = %d", net.SizeBytes())
	}
	w, g := net.Weights(), net.Grads()
	if len(w) != net.NumParams() || len(g) != net.NumParams() {
		t.Fatalf("Weights/Grads len = %d/%d", len(w), len(g))
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("Weights()[%d] = %g, layer-order concatenation has %g", i, w[i], want[i])
		}
	}
	off := 0
	for _, p := range net.Params() {
		if &p.W.Data[0] != &w[off] || &p.G.Data[0] != &g[off] {
			t.Fatalf("%s does not view the arena at offset %d", p.Name, off)
		}
		off += p.W.Len()
	}
	for i := range w {
		w[i] += 1
		g[i] = float32(i)
	}
	off = 0
	for _, p := range net.Params() {
		for j := range p.W.Data {
			if p.W.Data[j] != want[off+j]+1 || p.G.Data[j] != float32(off+j) {
				t.Fatalf("%s[%d]: a write through the flat view did not reach the parameter", p.Name, j)
			}
		}
		off += p.W.Len()
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if slices.ContainsFunc(p.G.Data, func(g float32) bool { return g != 0 }) {
			t.Fatal("ZeroGrads left nonzero gradient")
		}
	}
}

// wrapped is a layer decorator of the kind bench/perf's tracer puts around
// every layer before building a second network over them.
type wrapped struct{ Layer }

// TestNewNetworkAgainMovesOwnership: a second NewNetwork over layers that
// already belong to one — decorated, and a Residual whose body is a network
// of its own — keeps every value and takes the parameters over: the new
// views alias the layers' tensors, the old network's no longer do, and the
// layers compute with what is written through the new views.
func TestNewNetworkAgainMovesOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	body := NewNetwork(NewConv2D("c1", 2, 2, 3, 1, 1, rng), NewBatchNorm2D("bn1", 2))
	old := NewNetwork(
		NewResidual(body, NewConv2D("proj", 2, 2, 1, 1, 0, rng)),
		NewGlobalAvgPool2D(),
		NewDense("fc", 2, 3, rng),
	)
	for i := range old.Grads() {
		old.Grads()[i] = float32(i) + 0.5
	}
	wantW := append([]float32(nil), old.Weights()...)
	wantG := append([]float32(nil), old.Grads()...)

	layers := make([]Layer, len(old.Layers))
	for i, l := range old.Layers {
		layers[i] = wrapped{l}
	}
	net := NewNetwork(layers...)
	if net.NumParams() != len(wantW) {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), len(wantW))
	}
	for i := range wantW {
		if net.Weights()[i] != wantW[i] || net.Grads()[i] != wantG[i] {
			t.Fatalf("value %d not preserved: w %g g %g, want %g %g", i, net.Weights()[i], net.Grads()[i], wantW[i], wantG[i])
		}
	}
	off := 0
	for _, p := range old.Params() {
		if &p.W.Data[0] != &net.Weights()[off] || &p.G.Data[0] != &net.Grads()[off] {
			t.Fatalf("%s does not view the newest network's arena", p.Name)
		}
		if &p.W.Data[0] == &old.Weights()[off] {
			t.Fatalf("%s still views the old network's arena", p.Name)
		}
		off += p.W.Len()
	}

	x := tensor.New(2, 2, 4, 4)
	x.FillRandn(rng, 1)
	before := net.Forward(x, false).Clone()
	for i := range net.Weights() {
		net.Weights()[i] += 0.25
	}
	after := net.Forward(x, false)
	same := true
	for i := range before.Data {
		same = same && before.Data[i] == after.Data[i]
	}
	if same {
		t.Fatal("Forward ignored a write through the new network's Weights()")
	}
}

// TestParamViewAppendReallocates: each view's capacity stops at its own
// end, so growing one parameter's slice cannot overwrite the next.
func TestParamViewAppendReallocates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(NewDense("fc1", 3, 4, rng), NewDense("fc2", 4, 2, rng))
	ps := net.Params()
	for i, p := range ps[:len(ps)-1] {
		next := ps[i+1]
		w0, g0 := next.W.Data[0], next.G.Data[0]
		if cap(p.W.Data) != len(p.W.Data) || cap(p.G.Data) != len(p.G.Data) {
			t.Fatalf("%s: view capacity %d/%d exceeds its length %d", p.Name, cap(p.W.Data), cap(p.G.Data), len(p.W.Data))
		}
		_ = append(p.W.Data, w0+1)
		_ = append(p.G.Data, g0+1)
		if next.W.Data[0] != w0 || next.G.Data[0] != g0 {
			t.Fatalf("append on %s overwrote %s", p.Name, next.Name)
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := NewDense("fc", 3, 2, rng)
	x := tensor.New(2, 3)
	x.FillRandn(rng, 1)
	out := d.Forward(x, true)
	dout := out.Clone()
	for _, p := range d.Params() {
		clear(p.G.Data)
	}
	d.Backward(dout)
	once := d.Params()[0].G.Clone()
	d.Forward(x, true)
	d.Backward(dout)
	twice := d.Params()[0].G
	for i := range once.Data {
		if math.Abs(float64(twice.Data[i]-2*once.Data[i])) > 1e-4 {
			t.Fatalf("gradient not accumulated: %g vs 2*%g", twice.Data[i], once.Data[i])
		}
	}
}

// TestTinyNetworkLearnsXOR is an end-to-end sanity check: a 2-layer MLP
// must fit XOR with plain gradient descent.
func TestTinyNetworkLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(
		NewDense("fc1", 2, 8, rng),
		NewReLU(),
		NewDense("fc2", 8, 2, rng),
	)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	var sce SoftmaxCrossEntropy
	var loss float64
	for it := 0; it < 2000; it++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = sce.Loss(logits, labels)
		net.Backward(grad)
		for _, p := range net.Params() {
			for i, g := range p.G.Data {
				p.W.Data[i] -= 0.1 * g
			}
		}
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc != 1 {
		t.Fatalf("XOR accuracy = %g (loss %g)", acc, loss)
	}
}

func TestLRNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l := NewLRN()
	x := tensor.New(2, 7, 3, 3) // more channels than the window
	x.FillRandn(rng, 1)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestLRNNormalizesLargeActivations(t *testing.T) {
	l := NewLRN()
	x := tensor.New(1, 5, 1, 1)
	x.Fill(100)
	out := l.Forward(x, true)
	for i, v := range out.Data {
		if v >= 100 {
			t.Fatalf("channel %d not suppressed: %g", i, v)
		}
	}
	// Small activations pass nearly unchanged (denominator ~k^beta).
	x.Fill(0.01)
	out = l.Forward(x, true)
	want := 0.01 * float32(math.Pow(2, -0.75))
	for i, v := range out.Data {
		if math.Abs(float64(v-want)) > 1e-6 {
			t.Fatalf("channel %d: %g, want %g", i, v, want)
		}
	}
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := Predict(logits)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
