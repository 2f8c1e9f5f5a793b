package opt

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"inceptionn/internal/nn"
	"inceptionn/internal/tensor"
)

func TestSGDPlainStep(t *testing.T) {
	p := &nn.Param{
		W:     tensor.FromSlice([]float32{1, 2}, 2),
		G:     tensor.FromSlice([]float32{0.5, -0.5}, 2),
		Decay: true,
	}
	s := NewSGD(0.1, 0, 0)
	s.Step([]*nn.Param{p})
	if math.Abs(float64(p.W.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.W.Data[1])-2.05) > 1e-6 {
		t.Fatalf("weights after step: %v", p.W.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := &nn.Param{
		W: tensor.FromSlice([]float32{0}, 1),
		G: tensor.FromSlice([]float32{1}, 1),
	}
	s := NewSGD(0.1, 0.9, 0)
	s.Step([]*nn.Param{p}) // v=-0.1, w=-0.1
	p.G.Data[0] = 1        // the step consumed the gradient
	s.Step([]*nn.Param{p}) // v=-0.19, w=-0.29
	if math.Abs(float64(p.W.Data[0])+0.29) > 1e-6 {
		t.Fatalf("w after two momentum steps = %g, want -0.29", p.W.Data[0])
	}
}

func TestWeightDecayOnlyOnDecayParams(t *testing.T) {
	w := &nn.Param{W: tensor.FromSlice([]float32{1}, 1), G: tensor.New(1), Decay: true}
	b := &nn.Param{W: tensor.FromSlice([]float32{1}, 1), G: tensor.New(1), Decay: false}
	s := NewSGD(0.1, 0, 0.5)
	s.Step([]*nn.Param{w, b})
	if math.Abs(float64(w.W.Data[0])-0.95) > 1e-6 {
		t.Errorf("decayed weight = %g, want 0.95", w.W.Data[0])
	}
	if b.W.Data[0] != 1 {
		t.Errorf("bias = %g, decay must not apply", b.W.Data[0])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = 0.5*(w-3)²; gradient w-3.
	p := &nn.Param{W: tensor.FromSlice([]float32{0}, 1), G: tensor.New(1)}
	s := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		p.G.Data[0] = p.W.Data[0] - 3
		s.Step([]*nn.Param{p})
	}
	if math.Abs(float64(p.W.Data[0])-3) > 1e-3 {
		t.Fatalf("converged to %g, want 3", p.W.Data[0])
	}
}

func TestStepSchedule(t *testing.T) {
	s := StepSchedule{Base: 0.01, Factor: 10, Every: 1000}
	cases := map[int]float64{0: 0.01, 999: 0.01, 1000: 0.001, 2500: 0.0001}
	for it, want := range cases {
		if got := s.At(it); math.Abs(got-want) > 1e-12 {
			t.Errorf("At(%d) = %g, want %g", it, got, want)
		}
	}
}

func TestStepScheduleDegenerate(t *testing.T) {
	s := StepSchedule{Base: 0.1}
	if got := s.At(100000); got != 0.1 {
		t.Errorf("no-schedule At = %g", got)
	}
}

func TestSGDTrainsRealLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(
		nn.NewDense("fc1", 2, 16, rng),
		nn.NewReLU(),
		nn.NewDense("fc2", 16, 2, rng),
	)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	var sce nn.SoftmaxCrossEntropy
	sched := StepSchedule{Base: 0.2, Factor: 10, Every: 1500}
	s := NewSGD(sched.Base, 0.9, 0)
	for it := 0; it < 2000; it++ {
		s.LR = sched.At(it)
		net.ZeroGrads()
		logits := net.Forward(x, true)
		_, grad := sce.Loss(logits, labels)
		net.Backward(grad)
		s.Step(net.Params())
	}
	if pred := nn.Predict(net.Forward(x, false)); !slices.Equal(pred, labels) {
		t.Fatalf("XOR predictions with SGD+momentum = %v, want %v", pred, labels)
	}
}

// TestSGDRejectsLayoutMismatch: the momentum is sized by the first
// parameter list; a list of another total is an error from Velocity and a
// panic carrying that error from Step, never an index out of range.
func TestSGDRejectsLayoutMismatch(t *testing.T) {
	five := []*nn.Param{{W: tensor.New(5), G: tensor.New(5)}}
	seven := []*nn.Param{{W: tensor.New(3), G: tensor.New(3)}, {W: tensor.New(4), G: tensor.New(4)}}
	s := NewSGD(0.1, 0.9, 0)
	if v, err := s.Velocity(five); err != nil || len(v) != 5 {
		t.Fatalf("first use: %d values, err %v; want 5 zeros", len(v), err)
	}
	s.Step(five)
	if v, err := s.Velocity(seven); err == nil {
		t.Fatalf("Velocity accepted 7 parameters over a 5-value state (returned %d values)", len(v))
	}
	defer func() {
		if _, ok := recover().(error); !ok {
			t.Fatal("Step over mismatched parameters did not panic with Velocity's error")
		}
	}()
	s.Step(seven)
}

func TestWarmupSchedule(t *testing.T) {
	s := StepSchedule{Base: 0.1, Factor: 10, Every: 100, Warmup: 10}
	if got := s.At(0); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("At(0) = %g, want 0.01", got)
	}
	if got := s.At(4); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("At(4) = %g, want 0.05", got)
	}
	if got := s.At(9); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("At(9) = %g, want 0.1 (ramp complete)", got)
	}
	if got := s.At(50); got != 0.1 {
		t.Errorf("At(50) = %g", got)
	}
	if got := s.At(150); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("At(150) = %g, want post-drop 0.01", got)
	}
}

// refSGDUpdate is the per-element loop SGD.Step ran before its three slices
// were hoisted out of it, kept verbatim as the reference for the update's
// arithmetic. Never called outside tests.
func refSGDUpdate(p *nn.Param, v *tensor.Tensor, lr, mom, decay float32) {
	for i := range v.Data {
		g := p.G.Data[i] + decay*p.W.Data[i]
		v.Data[i] = mom*v.Data[i] - lr*g
		p.W.Data[i] += v.Data[i]
	}
}

// TestSGDStepMatchesReferenceBits: a decayed weight and an undecayed bias,
// with and without momentum, over five steps with a moving learning rate —
// weights and velocity bit for bit what the reference loop computes.
func TestSGDStepMatchesReferenceBits(t *testing.T) {
	const wd = 0.0005
	for _, momentum := range []float64{0, 0.9} {
		rng := rand.New(rand.NewSource(31))
		newParams := func() []*nn.Param {
			w := &nn.Param{Name: "w", W: tensor.New(17, 59), G: tensor.New(17, 59), Decay: true}
			b := &nn.Param{Name: "b", W: tensor.New(1, 7), G: tensor.New(1, 7)}
			return []*nn.Param{w, b}
		}
		got, want := newParams(), newParams()
		wantVel := []*tensor.Tensor{tensor.New(17, 59), tensor.New(1, 7)}
		for i, p := range got {
			p.W.FillRandn(rng, 1)
			copy(want[i].W.Data, p.W.Data)
		}
		s := NewSGD(0.02, momentum, wd)
		for step := 0; step < 5; step++ {
			s.LR = 0.02 / float64(step+1)
			for i, p := range got {
				p.G.FillRandn(rng, 1)
				p.G.Data[step] = 0 // an exact zero gradient entry
				copy(want[i].G.Data, p.G.Data)
				decay := float32(wd)
				if !p.Decay {
					decay = 0
				}
				refSGDUpdate(want[i], wantVel[i], float32(s.LR), float32(momentum), decay)
			}
			s.Step(got)
			vel, err := s.Velocity(got)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range got {
				for j := range p.W.Data {
					if math.Float32bits(p.W.Data[j]) != math.Float32bits(want[i].W.Data[j]) ||
						math.Float32bits(vel[j]) != math.Float32bits(wantVel[i].Data[j]) {
						t.Fatalf("momentum %g step %d %s[%d]: w %g v %g, reference w %g v %g", momentum, step,
							p.Name, j, p.W.Data[j], vel[j], want[i].W.Data[j], wantVel[i].Data[j])
					}
				}
				vel = vel[p.W.Len():]
			}
		}
	}
}
