// Package opt implements the optimizer used by every training workload in
// the paper's Table I: stochastic gradient descent with momentum, weight
// decay, and a step learning-rate schedule (LR divided by a constant every
// fixed number of iterations).
package opt

import (
	"fmt"

	"inceptionn/internal/nn"
)

// SGD is stochastic gradient descent with classical momentum:
//
//	v ← momentum·v − lr·(g + weightDecay·w)
//	w ← w + v
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	// velocity is the momentum of every parameter in one flat slice, laid
	// out like the parameter list it was first sized for (nn.Network's
	// weight layout, when the list is a network's).
	velocity []float32
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Velocity returns the flat momentum state, in parameter order — zeros,
// sized for params, on first use. It is a view, which Step updates in
// place (the velocity is identical across replicas, like the weights). A
// parameter list whose total differs from the one the state was sized for
// is an error.
func (s *SGD) Velocity(params []*nn.Param) ([]float32, error) {
	total := 0
	for _, p := range params {
		total += p.W.Len()
	}
	if s.velocity == nil {
		s.velocity = make([]float32, total)
	}
	if len(s.velocity) != total {
		return nil, fmt.Errorf("opt: velocity holds %d values, the parameters %d", len(s.velocity), total)
	}
	return s.velocity, nil
}

// Step applies one update to every parameter using its accumulated
// gradient, and consumes the gradient: StepScaled(params, 1), x·1 being
// exact.
func (s *SGD) Step(params []*nn.Param) { s.StepScaled(params, 1) }

// StepScaled applies one update to every parameter using scale times its
// accumulated gradient — the sum of N replicas' gradients at scale 1/N is
// their average — and clears the gradient, ready for the next backward
// pass. It panics on a parameter list Velocity would reject.
func (s *SGD) StepScaled(params []*nn.Param, scale float32) {
	velocity, err := s.Velocity(params)
	if err != nil {
		panic(err)
	}
	lr := float32(s.LR)
	mom := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		decay := wd
		if !p.Decay {
			decay = 0
		}
		vel := velocity[:p.W.Len()]
		velocity = velocity[len(vel):]
		step(p.W.Data[:len(vel)], vel, p.G.Data[:len(vel)], scale, decay, mom, lr)
	}
}

// stepGo is the update's portable body, per element in this order and
// each operation rounded to float32:
//
//	g ← G·scale;  g ← decay·W + g;  V ← mom·V − lr·g;  W ← W + V;  G ← 0
//
// Where both operands of an x86 add are NaN, the first one's payload
// survives. Written this way, the loop compiles to the operand order
// SGD.Step had before the scale and the clear were fused into it (decay·W
// before the gradient, W before V), which the AVX2 lanes copy; inlining
// could move it, hence noinline. w, v and g have equal lengths, so the
// loop carries no bounds check.
//
//go:noinline
func stepGo(w, v, g []float32, scale, decay, mom, lr float32) {
	v, g = v[:len(w)], g[:len(w)]
	for i := range w {
		x := g[i] * scale
		x = decay*w[i] + x
		vi := mom*v[i] - lr*x
		w[i] += vi
		v[i] = vi
		g[i] = 0
	}
}

// StepSchedule divides the learning rate by Factor every Every iterations,
// matching the paper's "LR reduction" hyperparameters (Table I), with an
// optional linear warmup ramp (Goyal et al.'s large-batch recipe, used by
// the gradient-compression literature the paper cites).
type StepSchedule struct {
	Base   float64
	Factor float64 // divisor, e.g. 10
	Every  int     // iterations between reductions
	Warmup int     // iterations of linear ramp from Base/Warmup to Base
}

// At returns the learning rate for iteration it (0-based).
func (s StepSchedule) At(it int) float64 {
	if s.Warmup > 0 && it < s.Warmup {
		return s.Base * float64(it+1) / float64(s.Warmup)
	}
	if s.Every <= 0 || s.Factor <= 0 {
		return s.Base
	}
	lr := s.Base
	for n := it / s.Every; n > 0; n-- {
		lr /= s.Factor
	}
	return lr
}

// String implements fmt.Stringer.
func (s StepSchedule) String() string {
	return fmt.Sprintf("lr=%g /%g every %d iters", s.Base, s.Factor, s.Every)
}
