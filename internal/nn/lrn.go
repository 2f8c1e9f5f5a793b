package nn

import (
	"math"

	"inceptionn/internal/tensor"
)

// LRN is local response normalization across channels (Krizhevsky et al.,
// 2012 — the normalization AlexNet uses between its convolution stages):
//
//	b[c] = a[c] / (k + (alpha/n)·Σ_{c'∈window(c)} a[c']²)^beta
//
// with a window of n channels centred on c.
type LRN struct {
	N     int // window size (channels)
	K     float64
	Alpha float64
	Beta  float64

	x     *tensor.Tensor
	denom []float64 // (k + alpha/n·sum)^... cached per activation
}

// NewLRN constructs an LRN layer with AlexNet's standard constants
// (n=5, k=2, alpha=1e-4, beta=0.75).
func NewLRN() *LRN {
	return &LRN{N: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
}

// Forward implements Layer.
func (l *LRN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	l.x = x
	out := tensor.New(x.Shape...)
	if len(l.denom) != x.Len() {
		l.denom = make([]float64, x.Len())
	}
	plane := h * w
	half := l.N / 2
	for b := 0; b < batch; b++ {
		for p := 0; p < plane; p++ {
			for c := 0; c < ch; c++ {
				var sum float64
				for cc := c - half; cc <= c+half; cc++ {
					if cc < 0 || cc >= ch {
						continue
					}
					v := float64(x.Data[(b*ch+cc)*plane+p])
					sum += v * v
				}
				idx := (b*ch+c)*plane + p
				d := l.K + l.Alpha/float64(l.N)*sum
				l.denom[idx] = d
				out.Data[idx] = float32(float64(x.Data[idx]) * math.Pow(d, -l.Beta))
			}
		}
	}
	return out
}

// Backward implements Layer. For y_c = a_c·d_c^-β with
// d_c = k + (α/n)Σ a², the gradient is
//
//	∂L/∂a_c = g_c·d_c^-β − (2αβ/n)·a_c·Σ_{c'∈window⁻¹(c)} g_c'·a_c'·d_c'^-(β+1)
func (l *LRN) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch, ch, h, w := l.x.Shape[0], l.x.Shape[1], l.x.Shape[2], l.x.Shape[3]
	dx := tensor.New(l.x.Shape...)
	plane := h * w
	half := l.N / 2
	scale := 2 * l.Alpha * l.Beta / float64(l.N)
	for b := 0; b < batch; b++ {
		for p := 0; p < plane; p++ {
			for c := 0; c < ch; c++ {
				idx := (b*ch+c)*plane + p
				grad := float64(dout.Data[idx]) * math.Pow(l.denom[idx], -l.Beta)
				// Contributions from outputs whose window includes c.
				var cross float64
				for cc := c - half; cc <= c+half; cc++ {
					if cc < 0 || cc >= ch {
						continue
					}
					j := (b*ch+cc)*plane + p
					cross += float64(dout.Data[j]) * float64(l.x.Data[j]) *
						math.Pow(l.denom[j], -(l.Beta+1))
				}
				grad -= scale * float64(l.x.Data[idx]) * cross
				dx.Data[idx] = float32(grad)
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }
