package nn

import (
	"inceptionn/internal/tensor"
)

// Residual wraps a body network with an identity (or 1×1 projection)
// shortcut: out = ReLU(body(x) + shortcut(x)). This is the basic ResNet
// building block (He et al., 2015).
type Residual struct {
	Body     *Network
	Shortcut Layer // nil for identity

	relu *ReLU
	sum  *tensor.Tensor
}

// NewResidual constructs a residual block. shortcut may be nil when the
// body preserves the activation shape. The body's first layer computes its
// input gradient: the block's own is built from it.
func NewResidual(body *Network, shortcut Layer) *Residual {
	body.setFirst(false)
	return &Residual{Body: body, Shortcut: shortcut, relu: NewReLU()}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Body.Forward(x, train)
	skip := x
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train)
	}
	r.sum = main.Clone()
	r.sum.AddInPlace(skip)
	return r.relu.Forward(r.sum, train)
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := r.relu.Backward(dout)
	dx := r.Body.Backward(dsum)
	if r.Shortcut != nil {
		dskip := r.Shortcut.Backward(dsum)
		dx = dx.Clone()
		dx.AddInPlace(dskip)
	} else {
		dx = dx.Clone()
		dx.AddInPlace(dsum)
	}
	return dx
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(append([]*Param(nil), ps...), r.Shortcut.Params()...)
	}
	return ps
}
