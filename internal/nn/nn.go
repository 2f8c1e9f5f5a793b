// Package nn implements the neural-network substrate: layers with forward
// and backward passes, parameter containers, a sequential network, and the
// softmax cross-entropy loss. It is the training stack the paper's DNN
// workloads (AlexNet, HDC, ResNet, VGG) run on in this reproduction.
//
// Conventions:
//   - Activations are tensors with the batch as the leading dimension:
//     [B, features] for dense layers, [B, C, H, W] for convolutional ones.
//   - Backward must be called in reverse layer order immediately after
//     Forward; layers cache whatever they need from the forward pass.
//   - Parameter gradients are *accumulated* (+=); call Network.ZeroGrads
//     before each optimization step.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"inceptionn/internal/tensor"
)

// Param is one learnable parameter tensor and its gradient.
type Param struct {
	Name  string
	W     *tensor.Tensor
	G     *tensor.Tensor
	Decay bool // weight decay applies (true for weights, false for biases)
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for input x. train selects
	// training-mode behaviour (dropout, batch-norm statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients along the way.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (nil if stateless).
	Params() []*Param
}

// Network is a sequential composition of layers.
type Network struct {
	Layers []Layer

	params []*Param // cached flattening
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	return n
}

// Forward runs all layers in order.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param { return n.params }

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += p.W.Len()
	}
	return total
}

// SizeBytes returns the model size in bytes (float32 parameters).
func (n *Network) SizeBytes() int64 { return 4 * int64(n.NumParams()) }

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.params {
		p.G.Zero()
	}
}

// GradVector appends all parameter gradients, in layer order, to dst and
// returns the result. This is the flat vector exchanged over the network
// by the distributed training algorithms.
func (n *Network) GradVector(dst []float32) []float32 {
	for _, p := range n.params {
		dst = append(dst, p.G.Data...)
	}
	return dst
}

// SetGradVector scatters a flat gradient vector (as produced by GradVector)
// back into the parameter gradients.
func (n *Network) SetGradVector(src []float32) {
	off := 0
	for _, p := range n.params {
		copy(p.G.Data, src[off:off+p.G.Len()])
		off += p.G.Len()
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: SetGradVector got %d values, model has %d", len(src), off))
	}
}

// WeightVector appends all weights, in layer order, to dst.
func (n *Network) WeightVector(dst []float32) []float32 {
	for _, p := range n.params {
		dst = append(dst, p.W.Data...)
	}
	return dst
}

// SetWeightVector scatters a flat weight vector back into the parameters;
// used to broadcast the initial model to all workers.
func (n *Network) SetWeightVector(src []float32) {
	off := 0
	for _, p := range n.params {
		copy(p.W.Data, src[off:off+p.W.Len()])
		off += p.W.Len()
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: SetWeightVector got %d values, model has %d", len(src), off))
	}
}

// Dense is a fully connected layer: y = x·W + b with x [B, in].
type Dense struct {
	In, Out int
	w, b    *Param
	x       *tensor.Tensor // cached input
}

// NewDense constructs a Dense layer with He-normal initialization.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(in, out)
	w.FillRandn(rng, heStd(in))
	return &Dense{
		In: in, Out: out,
		w: &Param{Name: name + ".w", W: w, G: tensor.New(in, out), Decay: true},
		b: &Param{Name: name + ".b", W: tensor.New(1, out), G: tensor.New(1, out)},
	}
}

func heStd(fanIn int) float64 {
	return math.Sqrt(2 / float64(fanIn))
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.x = x
	batch := x.Shape[0]
	out := tensor.New(batch, d.Out)
	tensor.MatMul(out, x, d.w.W)
	for i := 0; i < batch; i++ {
		row := out.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.b.W.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch := dout.Shape[0]
	// dW += xᵀ·dout
	tensor.AddMatMulTransA(d.w.G, d.x, dout)
	// db += column sums of dout
	for i := 0; i < batch; i++ {
		row := dout.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.b.G.Data[j] += v
		}
	}
	// dx = dout·Wᵀ
	dx := tensor.New(batch, d.In)
	tensor.MatMulTransB(dx, dout, d.w.W)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
