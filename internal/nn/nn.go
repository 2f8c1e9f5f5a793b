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

// Network is a sequential composition of layers and the owner of its
// replica's state layout: every parameter's weights live in one contiguous
// slice and every gradient in another, both in layer order, and each
// Param.W.Data / Param.G.Data is a view into them. That flat gradient is
// the vector g of the paper's Algorithm 1, so the distributed runners
// exchange and update the views without gathering.
type Network struct {
	Layers []Layer

	params  []*Param  // cached flattening
	weights []float32 // backing store of every Param.W, in layer order
	grads   []float32 // backing store of every Param.G, same layout
}

// NewNetwork builds a sequential network and re-homes its parameters,
// values preserved, into the network's two flat slices. Each view's
// capacity is clipped to its length, so an append on one reallocates
// instead of reaching its neighbour. Layers that already belong to a
// network move to this one: the older network's Weights and Grads stop
// tracking them.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	total := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n.params = append(n.params, p)
			total += p.W.Len()
		}
	}
	n.weights, n.grads = make([]float32, total), make([]float32, total)
	off := 0
	for _, p := range n.params {
		end := off + p.W.Len()
		copy(n.weights[off:end], p.W.Data)
		copy(n.grads[off:end], p.G.Data)
		p.W.Data, p.G.Data = n.weights[off:end:end], n.grads[off:end:end]
		off = end
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

// Weights returns the flat weight vector, in layer order: a view, so a
// write through it is a write to the parameters. A caller that needs the
// values past the next update copies them.
func (n *Network) Weights() []float32 { return n.weights }

// Grads returns the flat gradient vector, laid out like Weights: the view
// Backward accumulates into and the optimizer steps on, and the buffer the
// distributed training algorithms exchange in place.
func (n *Network) Grads() []float32 { return n.grads }

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int { return len(n.weights) }

// SizeBytes returns the model size in bytes (float32 parameters).
func (n *Network) SizeBytes() int64 { return 4 * int64(n.NumParams()) }

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() { clear(n.grads) }

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
