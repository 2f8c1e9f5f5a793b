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
// gradient. It panics on a parameter list Velocity would reject.
func (s *SGD) Step(params []*nn.Param) {
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
		// Three equal-length slices, so the loop re-derives nothing through
		// p and carries no bounds check.
		vel := velocity[:p.W.Len()]
		velocity = velocity[len(vel):]
		w, grad := p.W.Data[:len(vel)], p.G.Data[:len(vel)]
		for i := range vel {
			g := grad[i] + decay*w[i]
			vel[i] = mom*vel[i] - lr*g
			w[i] += vel[i]
		}
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
