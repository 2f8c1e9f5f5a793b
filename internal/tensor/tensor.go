// Package tensor provides dense float32 tensors and the numerical kernels
// (matrix multiply, im2col convolution lowering, reductions) that the
// neural-network substrate in internal/nn is built on. Data is stored
// row-major (C order).
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"inceptionn/internal/par"
)

// Tensor is a dense row-major float32 array with a shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view over the same data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at 2-D index (i, j); the tensor must be 2-D.
func (t *Tensor) At(i, j int) float32 {
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at 2-D index (i, j); the tensor must be 2-D.
func (t *Tensor) Set(i, j int, v float32) {
	t.Data[i*t.Shape[1]+j] = v
}

// Zero fills the tensor with zeros.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillRandn fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) FillRandn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// AddInPlace computes t += o elementwise. Shapes must carry equal sizes.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Axpy computes t += alpha*o elementwise.
func (t *Tensor) Axpy(alpha float32, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Axpy size mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// Scale computes t *= alpha elementwise.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Dot returns the inner product of the flattened tensors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range t.Data {
		s += float64(t.Data[i]) * float64(o.Data[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// MatMul computes dst = a·b for 2-D tensors a (m×k) and b (k×n).
// dst must be m×n and distinct from a and b. The k-inner loop runs over b's
// rows (ikj order) for cache-friendly access. Output rows are computed in
// parallel shards (internal/par); every element accumulates over k in
// ascending order regardless of the worker count, so results are
// bit-identical to a sequential run.
//
// Zero elements of a are NOT short-circuited: IEEE 754 requires
// 0×NaN = NaN and 0×Inf = NaN, so a skipped multiply would launder a
// diverging replica's non-finite gradients into finite outputs.
func MatMul(dst, a, b *Tensor) {
	m, ka := a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", ka, kb))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst %v, want [%d %d]", dst.Shape, m, n))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	par.For(m, par.GrainFor(2*ka*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for x := range drow {
				drow[x] = 0
			}
			arow := ad[i*ka : (i+1)*ka]
			for k := 0; k < ka; k++ {
				av := arow[k]
				brow := bd[k*n : (k+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// MatMulTransA computes dst = aᵀ·b for a (k×m) and b (k×n); dst is m×n.
// Like MatMul it shards over output rows, accumulates over k in ascending
// order (bit-identical for any worker count), and never short-circuits
// zeros (0×NaN must stay NaN).
func MatMulTransA(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", k, kb))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %v, want [%d %d]", dst.Shape, m, n))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	par.For(m, par.GrainFor(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for x := range drow {
				drow[x] = 0
			}
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// MatMulTransB computes dst = a·bᵀ for a (m×k) and b (n×k); dst is m×n.
// Output rows are sharded in parallel; the p-accumulation order is fixed,
// so results are bit-identical for any worker count.
func MatMulTransB(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, kb := b.Shape[0], b.Shape[1]
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", k, kb))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %v, want [%d %d]", dst.Shape, m, n))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	par.For(m, par.GrainFor(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				dd[i*n+j] = s
			}
		}
	})
}

// Im2Col lowers a CHW image into a matrix of shape
// (channels*kh*kw) × (outH*outW) so convolution becomes MatMul.
// img must have shape [channels, height, width].
func Im2Col(dst, img *Tensor, kh, kw, stride, pad int) {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows := c * kh * kw
	cols := outH * outW
	if dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2Col dst %v, want [%d %d]", dst.Shape, rows, cols))
	}
	id, dd := img.Data, dst.Data
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				base := row * cols
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = id[(ch*h+iy)*w+ix]
						}
						dd[base+oy*outW+ox] = v
					}
				}
			}
		}
	}
}

// Col2Im scatters a column matrix (as produced by Im2Col) back into a CHW
// image, accumulating overlapping contributions. It is the adjoint of
// Im2Col, used by the convolution backward pass. img is zeroed first.
func Col2Im(img, cols *Tensor, kh, kw, stride, pad int) {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	nCols := outH * outW
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != nCols {
		panic(fmt.Sprintf("tensor: Col2Im cols %v, want [%d %d]", cols.Shape, c*kh*kw, nCols))
	}
	img.Zero()
	id, cd := img.Data, cols.Data
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				base := row * nCols
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						id[(ch*h+iy)*w+ix] += cd[base+oy*outW+ox]
					}
				}
			}
		}
	}
}

// ConvOutSize returns the output spatial size of a convolution/pooling with
// the given geometry.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
