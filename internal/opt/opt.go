// Package opt implements the optimizer used by every training workload in
// the paper's Table I: stochastic gradient descent with momentum, weight
// decay, and a step learning-rate schedule (LR divided by a constant every
// fixed number of iterations).
package opt

import (
	"fmt"
	"math"

	"inceptionn/internal/nn"
	"inceptionn/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum:
//
//	v ← momentum·v − lr·(g + weightDecay·w)
//	w ← w + v
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// ClipNorm, when positive, rescales the global gradient so its L2 norm
	// never exceeds this value before the update (the standard stabilizer
	// for large effective batches and for sparsified/stale gradients).
	ClipNorm float64

	velocity map[*nn.Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*nn.Param]*tensor.Tensor),
	}
}

// Step applies one update to every parameter using its accumulated
// gradient.
func (s *SGD) Step(params []*nn.Param) {
	if s.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.G.Data {
				sq += float64(g) * float64(g)
			}
		}
		if norm := math.Sqrt(sq); norm > s.ClipNorm {
			scale := float32(s.ClipNorm / norm)
			for _, p := range params {
				p.G.Scale(scale)
			}
		}
	}
	lr := float32(s.LR)
	mom := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = tensor.New(p.W.Shape...)
			s.velocity[p] = v
		}
		decay := wd
		if !p.Decay {
			decay = 0
		}
		// Three equal-length slices, so the loop re-derives nothing through
		// p and carries no bounds check.
		vel := v.Data
		w, grad := p.W.Data[:len(vel)], p.G.Data[:len(vel)]
		for i := range vel {
			g := grad[i] + decay*w[i]
			vel[i] = mom*vel[i] - lr*g
			w[i] += vel[i]
		}
	}
}

// VelocityVector appends the flattened momentum state, in parameter
// order, to dst — zeros for parameters that have never been stepped. The
// vector round-trips through SetVelocityVector, which is how elastic
// checkpoints capture and restore optimizer state (the velocity is
// identical across replicas, like the weights).
func (s *SGD) VelocityVector(params []*nn.Param, dst []float32) []float32 {
	for _, p := range params {
		if v := s.velocity[p]; v != nil {
			dst = append(dst, v.Data...)
		} else {
			dst = append(dst, make([]float32, p.W.Len())...)
		}
	}
	return dst
}

// SetVelocityVector scatters a flat momentum vector (as produced by
// VelocityVector) back into the optimizer state, allocating velocity
// tensors for parameters that have none yet.
func (s *SGD) SetVelocityVector(params []*nn.Param, src []float32) error {
	total := 0
	for _, p := range params {
		total += p.W.Len()
	}
	if len(src) != total {
		return fmt.Errorf("opt: velocity vector has %d values, model has %d", len(src), total)
	}
	if s.velocity == nil {
		s.velocity = make(map[*nn.Param]*tensor.Tensor)
	}
	off := 0
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = tensor.New(p.W.Shape...)
			s.velocity[p] = v
		}
		copy(v.Data, src[off:off+p.W.Len()])
		off += p.W.Len()
	}
	return nil
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
