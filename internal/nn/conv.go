package nn

import (
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
	// Grow the per-sample im2col cache without discarding survivors: the
	// old `len != batch` reset meant one trailing partial batch forced a
	// full reallocation on every subsequent full-size step. Entries keep
	// their matrices across shrink-then-grow batch sequences; stale
	// geometry is caught per entry below.
	for len(c.cols) < batch {
		c.cols = append(c.cols, nil)
	}
	out := tensor.New(batch, c.OutC, c.outH, c.outW)
	rows := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	par.For(batch, 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			img := tensor.FromSlice(
				x.Data[bi*c.InC*h*w:(bi+1)*c.InC*h*w], c.InC, h, w)
			if col := c.cols[bi]; col == nil || col.Shape[0] != rows || col.Shape[1] != spatial {
				c.cols[bi] = tensor.New(rows, spatial)
			}
			tensor.Im2Col(c.cols[bi], img, c.K, c.K, c.Stride, c.Pad)
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

// Backward implements Layer. Per-sample work runs in parallel into
// private buffers; the weight/bias gradient contributions are then
// reduced into the shared accumulators in ascending sample order, so the
// result is bit-identical to the sequential loop for any worker count.
// The first layer of a network skips the input gradient and returns nil.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch, h, w := c.x.Shape[0], c.x.Shape[2], c.x.Shape[3]
	rows := c.InC * c.K * c.K
	spatial := c.outH * c.outW
	var dx *tensor.Tensor
	if !c.first {
		dx = tensor.New(batch, c.InC, h, w)
	}
	gws := make([]*tensor.Tensor, batch)
	dbs := make([][]float32, batch)
	par.For(batch, 1, func(lo, hi int) {
		// Scratch shared across this shard's samples only.
		var dcols, dimg *tensor.Tensor
		if dx != nil {
			dcols = tensor.New(rows, spatial)
			dimg = tensor.New(c.InC, h, w)
		}
		for bi := lo; bi < hi; bi++ {
			dres := tensor.FromSlice(
				dout.Data[bi*c.OutC*spatial:(bi+1)*c.OutC*spatial], c.OutC, spatial)
			// dW contribution: dres · colsᵀ
			gw := tensor.New(c.OutC, rows)
			tensor.MatMulTransB(gw, dres, c.cols[bi])
			gws[bi] = gw
			// db contribution: row sums of dres
			db := make([]float32, c.OutC)
			for oc := 0; oc < c.OutC; oc++ {
				var s float32
				row := dres.Data[oc*spatial : (oc+1)*spatial]
				for _, v := range row {
					s += v
				}
				db[oc] = s
			}
			dbs[bi] = db
			if dx == nil {
				continue
			}
			// dcols = Wᵀ · dres, then scatter back to image space.
			tensor.MatMulTransA(dcols, c.w.W, dres)
			tensor.Col2Im(dimg, dcols, c.K, c.K, c.Stride, c.Pad)
			copy(dx.Data[bi*c.InC*h*w:(bi+1)*c.InC*h*w], dimg.Data)
		}
	})
	for bi := 0; bi < batch; bi++ {
		c.w.G.AddInPlace(gws[bi])
		for oc, s := range dbs[bi] {
			c.b.G.Data[oc] += s
		}
	}
	return dx
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
// non-finite activations reach the loss, and the gradient routes to them.
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
	for bi := 0; bi < batch; bi++ {
		for c := 0; c < ch; c++ {
			plane := x.Data[(bi*ch+c)*h*w : (bi*ch+c+1)*h*w]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := float32(0)
					bestIdx := -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						if iy >= h {
							break
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride + kx
							if ix >= w {
								break
							}
							idx := iy*w + ix
							if v := plane[idx]; bestIdx < 0 || v > best || v != v {
								best = v
								bestIdx = idx
							}
						}
					}
					out.Data[oi] = best
					p.argmax[oi] = int32((bi*ch+c)*h*w + bestIdx)
					oi++
				}
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
