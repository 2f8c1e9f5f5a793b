package nn

import (
	"math"
	"math/rand"

	"inceptionn/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer. NaN passes through (and its gradient with it):
// `v > 0` alone is false for NaN, which would turn a diverging replica's
// activations into zeros and let it train on, silently (DESIGN.md §8).
// `!(v <= 0)` is that rule in one comparison, and the output selects
// through the mask's bit pattern, with no data-dependent branch.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	if len(r.mask) != x.Len() {
		r.mask = make([]bool, x.Len())
	}
	mask, y := r.mask[:len(x.Data)], out.Data[:len(x.Data)]
	for i, v := range x.Data {
		keep := !(v <= 0)
		mask[i] = keep
		y[i] = selectBits(keep, v)
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Shape...)
	mask, d := r.mask[:len(dout.Data)], dx.Data[:len(dout.Data)]
	for i, v := range dout.Data {
		d[i] = selectBits(mask[i], v)
	}
	return dx
}

// selectBits returns v if keep and +0 otherwise, by masking v's bits: the
// compiler turns the condition into a conditional move.
func selectBits(keep bool, v float32) float32 {
	var m uint32
	if keep {
		m = ^uint32(0)
	}
	return math.Float32frombits(math.Float32bits(v) & m)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1-P) (inverted dropout), so evaluation needs no
// rescaling.
type Dropout struct {
	P   float64
	rng *rand.Rand

	keep []bool
}

// NewDropout constructs a dropout layer driven by rng.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.keep = nil
		return x
	}
	out := tensor.New(x.Shape...)
	if len(d.keep) != x.Len() {
		d.keep = make([]bool, x.Len())
	}
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			out.Data[i] = v * scale
			d.keep[i] = true
		} else {
			d.keep[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.keep == nil {
		return dout
	}
	dx := tensor.New(dout.Shape...)
	scale := float32(1 / (1 - d.P))
	for i, v := range dout.Data {
		if d.keep[i] {
			dx.Data[i] = v * scale
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes [B, ...] to [B, rest].
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape
	rest := x.Len() / x.Shape[0]
	return x.Reshape(x.Shape[0], rest)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
