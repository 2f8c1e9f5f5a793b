package nn

import (
	"math"
	"math/rand"

	"inceptionn/internal/par"
	"inceptionn/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] inputs, implemented by
// im2col lowering to matrix multiplication.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	w, b  *Param
	first bool // Backward leaves out ∂L/∂x (see NewNetwork)

	// forward cache
	x          *tensor.Tensor
	cols       []*tensor.Tensor // per-batch-element im2col matrices
	outH, outW int

	// backward scratch, kept across steps
	gw     *tensor.Tensor   // one sample's weight-gradient contribution
	dcolsT []*tensor.Tensor // per-shard dcolsᵀ, under the shard's first sample
}

// NewConv2D constructs a convolution with He-normal initialization.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	w.FillRandn(rng, heStd(inC*k*k))
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		w: &Param{Name: name + ".w", W: w, G: tensor.New(outC, inC*k*k), Decay: true},
		b: &Param{Name: name + ".b", W: tensor.New(1, outC), G: tensor.New(1, outC)},
	}
}

// Forward implements Layer. Batch elements are processed in parallel
// shards (each writes a disjoint slice of the output), so results are
// bit-identical for any worker count.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	c.outH = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.outW = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	c.x = x
	c.cols = growCache(c.cols, batch)
	out := tensor.New(batch, c.OutC, c.outH, c.outW)
	rows := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	par.For(batch, 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			img := tensor.FromSlice(
				x.Data[bi*c.InC*h*w:(bi+1)*c.InC*h*w], c.InC, h, w)
			tensor.Im2Col(reuse(&c.cols[bi], rows, spatial), img, c.K, c.K, c.Stride, c.Pad)
			res := tensor.FromSlice(
				out.Data[bi*c.OutC*spatial:(bi+1)*c.OutC*spatial], c.OutC, spatial)
			tensor.MatMul(res, c.w.W, c.cols[bi])
			for oc := 0; oc < c.OutC; oc++ {
				bias := c.b.W.Data[oc]
				row := res.Data[oc*spatial : (oc+1)*spatial]
				for i := range row {
					row[i] += bias
				}
			}
		}
	})
	return out
}

// Backward implements Layer. The weight and bias gradients take the
// samples in ascending order, each product parallel over its rows and
// added to the accumulators before the next sample's, so no per-sample
// contribution outlives its turn; the input gradient runs in parallel
// shards of samples, each writing its own slice of dx. The result is
// bit-identical for any worker count. The first layer of a network skips
// the input gradient and returns nil.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch, h, w := c.x.Shape[0], c.x.Shape[2], c.x.Shape[3]
	rows := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	dres := func(bi int) *tensor.Tensor {
		return tensor.FromSlice(dout.Data[bi*c.OutC*spatial:(bi+1)*c.OutC*spatial], c.OutC, spatial)
	}
	gw := reuse(&c.gw, c.OutC, rows)
	for bi := 0; bi < batch; bi++ {
		d := dres(bi)
		tensor.MatMulTransB(gw, d, c.cols[bi]) // dres · colsᵀ
		c.w.G.AddInPlace(gw)
		for oc := range c.OutC {
			var s float32
			for _, v := range d.Data[oc*spatial : (oc+1)*spatial] {
				s += v
			}
			c.b.G.Data[oc] += s
		}
	}
	if c.first {
		return nil
	}
	dx := tensor.New(batch, c.InC, h, w)
	c.dcolsT = growCache(c.dcolsT, batch)
	par.For(batch, 1, func(lo, hi int) {
		// dcolsᵀ is scratch shared across this shard's samples only, kept
		// under the shard's first sample: the shards are a function of the
		// batch and the worker count, so a step reuses the last one's.
		dcolsT := reuse(&c.dcolsT[lo], spatial, rows)
		for bi := lo; bi < hi; bi++ {
			// dcolsᵀ = dresᵀ · W, with dres — mostly exact zeros after
			// ReLU and max-pool — as the coefficient operand whose zero
			// terms the kernel leaves out; then gather into image space.
			tensor.MatMulTransA(dcolsT, dres(bi), c.w.W)
			tensor.Col2Im(tensor.FromSlice(dx.Data[bi*c.InC*h*w:(bi+1)*c.InC*h*w], c.InC, h, w),
				dcolsT, c.K, c.K, c.Stride, c.Pad)
		}
	})
	return dx
}

// growCache extends a per-sample cache to n entries, keeping the ones it
// has: a trailing partial batch must not cost the full-size steps after it
// their buffers.
func growCache(cache []*tensor.Tensor, n int) []*tensor.Tensor {
	for len(cache) < n {
		cache = append(cache, nil)
	}
	return cache
}

// reuse returns *slot if it is an r×c matrix, and otherwise replaces it
// with a new one: stale geometry is caught per entry.
func reuse(slot **tensor.Tensor, r, c int) *tensor.Tensor {
	if t := *slot; t == nil || t.Shape[0] != r || t.Shape[1] != c {
		*slot = tensor.New(r, c)
	}
	return *slot
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2D) setFirst(first bool) { c.first = first }

// MaxPool2D is a max pooling layer over [B, C, H, W] inputs.
type MaxPool2D struct {
	K, Stride int

	argmax  []int32 // flat index into the input for each output element
	inShape []int
}

// NewMaxPool2D constructs a max pooling layer (square window).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{K: k, Stride: stride}
}

// Forward implements Layer. A NaN anywhere in a window is its maximum —
// `>` alone would skip every NaN but the window's first element — so
// non-finite activations reach the loss, and the gradient routes to them;
// of equal maxima the first wins. The windows need no clipping: without
// padding, ConvOutSize keeps the last one inside the input. The running
// maximum is selected by its index and bits, with no data-dependent branch.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, p.K, p.Stride, 0)
	outW := tensor.ConvOutSize(w, p.K, p.Stride, 0)
	out := tensor.New(batch, ch, outH, outW)
	p.inShape = x.Shape
	if len(p.argmax) != out.Len() {
		p.argmax = make([]int32, out.Len())
	}
	oi := 0
	for pl := 0; pl < batch*ch; pl++ {
		plane := x.Data[pl*h*w : (pl+1)*h*w]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				corner := oy*p.Stride*w + ox*p.Stride
				bestIdx, bestBits := corner, math.Float32bits(plane[corner])
				for ky := 0; ky < p.K; ky++ {
					for kx, v := range plane[corner+ky*w:][:p.K] {
						gt, nan := v > math.Float32frombits(bestBits), v != v
						take := gt != nan // never both: NaN > x is false
						idx, bits := corner+ky*w+kx, math.Float32bits(v)
						if take {
							bestIdx = idx
						}
						if take {
							bestBits = bits
						}
					}
				}
				out.Data[oi] = math.Float32frombits(bestBits)
				p.argmax[oi] = int32(pl*h*w + bestIdx)
				oi++
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	for i, v := range dout.Data {
		dx.Data[p.argmax[i]] += v
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel plane to a single value, mapping
// [B, C, H, W] to [B, C].
type GlobalAvgPool2D struct {
	inShape []int
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward implements Layer.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = x.Shape
	out := tensor.New(batch, ch)
	area := float32(h * w)
	for bc := 0; bc < batch*ch; bc++ {
		var s float32
		plane := x.Data[bc*h*w : (bc+1)*h*w]
		for _, v := range plane {
			s += v
		}
		out.Data[bc] = s / area
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	h, w := p.inShape[2], p.inShape[3]
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(h*w)
	for bc, v := range dout.Data {
		g := v * inv
		plane := dx.Data[bc*h*w : (bc+1)*h*w]
		for i := range plane {
			plane[i] = g
		}
	}
	return dx
}

// Params implements Layer.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }
