// Package tensor provides dense float32 tensors and the numerical kernels
// (matrix multiply, im2col convolution lowering, reductions) that the
// neural-network substrate in internal/nn is built on. Data is stored
// row-major (C order).
package tensor

import (
	"fmt"
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

// Set assigns the element at 2-D index (i, j); the tensor must be 2-D.
func (t *Tensor) Set(i, j int, v float32) {
	t.Data[i*t.Shape[1]+j] = v
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
func (t *Tensor) AddInPlace(o *Tensor) { Add(t.Data, o.Data) }

// Add computes d[i] += s[i] for every i, each element the one add
// d[i] + s[i] with d the first operand: the reduce add of every collective
// and of the error-feedback residual. It runs in the SIMD lanes where there
// are any (kernel_amd64.go) and addGo elsewhere; the two are bit-identical,
// NaN payloads included (DESIGN.md §8, "the reduce add in lanes"). The
// lengths must be equal.
func Add(d, s []float32) {
	if len(d) != len(s) {
		panic(fmt.Sprintf("tensor: Add size mismatch %d vs %d", len(d), len(s)))
	}
	add(d, s)
}

// addGo is Add's portable body. Float addition commutes, so the compiler
// picks which operand of d[i] + s[i] comes first, and on amd64 the first
// operand's NaN is the one a sum of two NaNs returns: -gcflags=-S shows
// this loop loading d[i] and adding s[i] to it (without the reslice of s
// it loads s[i] first), the order the AVX2 lanes take. It is noinline so
// that order cannot move with a caller.
//
//go:noinline
func addGo(d, s []float32) {
	s = s[:len(d)]
	for i := range d {
		d[i] += s[i]
	}
}

// The accumulation contract of every kernel below: an output element is a
// float32 sum that starts at +0 and takes one `s += x*y` per term, in
// ascending k — no reassociation and no float32(x*y) around the product,
// which would forbid the fusion the plain expression allows on FMA ports
// and so change results there. A term whose coefficient (the element of a)
// is ±0 is left out, but only when the other operand is all-finite: a sum
// that starts at +0 is never −0, so adding a ±0 product changes no bit,
// while 0×NaN and 0×Inf are NaN (IEEE 754) and must reach the output, or a
// diverging replica's non-finite gradients would be laundered into finite
// ones. Output rows are computed in parallel shards (internal/par); a row's
// arithmetic does not depend on its shard, so results are bit-identical for
// any worker count. DESIGN.md §8, "kernel anatomy" and "the exact zero
// skip", has the measurements behind the shape of the micro-kernels.

// skipZeros reports whether the kernels may leave out the terms of a's ±0
// elements when multiplying by b: a has one, and b is all-finite. It reads
// b only if a has a zero, so a dense coefficient operand costs one pass over
// a and nothing more.
func skipZeros(a, b []float32) bool {
	for _, v := range a {
		if v == 0 {
			return allFinite(b)
		}
	}
	return false
}

// allFiniteGo reports whether x holds no NaN or ±Inf, by summing it: a NaN
// or an infinity makes every sum it enters NaN or infinite. A sum of finite
// values can overflow too, but only with elements within a factor len(x) of
// float32's maximum, and that false alarm costs the caller only the dense
// path. Four sums of pairs keep four adds in flight. It is allFinite's
// portable body (kernel_amd64.go, kernel_other.go), as axpy4Go…axpy1Go are
// axpy4's…axpy1's.
func allFiniteGo(x []float32) bool {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= len(x); i += 8 {
		y := x[i : i+8 : i+8]
		s0 += y[0] + y[1]
		s1 += y[2] + y[3]
		s2 += y[4] + y[5]
		s3 += y[6] + y[7]
	}
	for _, v := range x[i:] {
		s0 += v
	}
	s := s0 + s1 + s2 + s3
	return s-s == 0
}

// axpy4Go adds four scaled rows to d, in order:
// d[j] = (((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j] — one load
// and one store of d per eight flops. The rows are cut to len(d) on entry so
// the loop carries no bounds check. It is axpy4's portable body: the whole
// kernel where there are no SIMD lanes (other ports, an amd64 CPU without
// AVX2), the tail of a row past its last 8-float block where there are.
func axpy4Go(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j := range d {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		d[j] = s
	}
}

// axpy3Go, axpy2Go and axpy1Go are axpy4Go's tails: the same chain over
// three, two and one rows, in one pass over d.
func axpy3Go(d, b0, b1, b2 []float32, a0, a1, a2 float32) {
	b0, b1, b2 = b0[:len(d)], b1[:len(d)], b2[:len(d)]
	for j := range d {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		d[j] = s
	}
}

func axpy2Go(d, b0, b1 []float32, a0, a1 float32) {
	b0, b1 = b0[:len(d)], b1[:len(d)]
	for j := range d {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		d[j] = s
	}
}

func axpy1Go(d, b []float32, a float32) {
	b = b[:len(d)]
	for j := range d {
		d[j] += a * b[j]
	}
}

// mulRow sets d to the sum over p < k of a[p·as]·b[p·n : (p+1)·n], n = len(d):
// one output row of a·b (as = 1) or of aᵀ·b (as = a's row length). The
// terms go through axpy4 four at a time in ascending p, and the last one to
// three through one tail call; with skip set, the terms whose coefficient
// is ±0 are left out and the rest keep their order.
func mulRow(d, a []float32, as int, b []float32, k int, skip bool) {
	n := len(d)
	clear(d)
	var q [4]int
	c := 0
	for p := 0; p < k; p++ {
		if skip && a[p*as] == 0 {
			continue
		}
		q[c] = p
		if c++; c == 4 {
			axpy4(d, b[q[0]*n:], b[q[1]*n:], b[q[2]*n:], b[q[3]*n:],
				a[q[0]*as], a[q[1]*as], a[q[2]*as], a[q[3]*as])
			c = 0
		}
	}
	switch c {
	case 3:
		axpy3(d, b[q[0]*n:], b[q[1]*n:], b[q[2]*n:], a[q[0]*as], a[q[1]*as], a[q[2]*as])
	case 2:
		axpy2(d, b[q[0]*n:], b[q[1]*n:], a[q[0]*as], a[q[1]*as])
	case 1:
		axpy1(d, b[q[0]*n:], a[q[0]*as])
	}
}

// dot4 returns a's inner product with four rows as four independent
// ascending chains, so four adds are in flight instead of one.
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for p, av := range a {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return
}

// dot1 is dot4's tail for n mod 4.
func dot1(a, b []float32) (s float32) {
	b = b[:len(a)]
	for p, av := range a {
		s += av * b[p]
	}
	return
}

// sparseDotNum/sparseDotDen is the nonzero fraction of a coefficient row
// below which dotRowSkip beats dot4 (DESIGN.md §8, "the exact zero skip").
const sparseDotNum, sparseDotDen = 3, 5

// sparseRow reports whether fewer than sparseDotNum/sparseDotDen of a's
// elements are nonzero.
func sparseRow(a []float32) bool {
	nz := 0
	for _, v := range a {
		if v != 0 {
			nz++
		}
	}
	return nz*sparseDotDen < len(a)*sparseDotNum
}

// dotRowSkip sets d[j] to the inner product of a with b's row j (rows of
// len(a) floats), leaving out the terms whose coefficient a[p] is ±0. The
// nonzero coefficients are gathered a block at a time into stack arrays,
// and each output carries its running sum from block to block, so every
// output takes its terms in ascending p.
func dotRowSkip(d, a, b []float32) {
	k := len(a)
	var idx [256]int32
	var val [256]float32
	clear(d)
	for p0 := 0; p0 < k; p0 += len(idx) {
		nz := 0
		for p, v := range a[p0:min(p0+len(idx), k)] {
			if v != 0 {
				idx[nz], val[nz] = int32(p0+p), v
				nz++
			}
		}
		if nz == 0 {
			continue
		}
		ix, vs := idx[:nz], val[:nz]
		j := 0
		for ; j+4 <= len(d); j += 4 {
			d[j], d[j+1], d[j+2], d[j+3] = dotIdx4(vs, ix,
				b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k],
				d[j], d[j+1], d[j+2], d[j+3])
		}
		for ; j < len(d); j++ {
			d[j] = dotIdx1(vs, ix, b[j*k:(j+1)*k], d[j])
		}
	}
}

// dotIdx4 continues the running sums s0…s3 of rows b0…b3 with the terms
// vs[t]·bᵢ[ix[t]], in order: dot4 over the gathered coefficients.
func dotIdx4(vs []float32, ix []int32, b0, b1, b2, b3 []float32, s0, s1, s2, s3 float32) (float32, float32, float32, float32) {
	ix = ix[:len(vs)]
	for t, av := range vs {
		p := ix[t]
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return s0, s1, s2, s3
}

// dotIdx1 is dotIdx4's tail for n mod 4.
func dotIdx1(vs []float32, ix []int32, b []float32, s float32) float32 {
	ix = ix[:len(vs)]
	for t, av := range vs {
		s += av * b[ix[t]]
	}
	return s
}

// MatMul computes dst = a·b for 2-D tensors a (m×k) and b (k×n).
// dst must be m×n and distinct from a and b.
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
	skip := skipZeros(ad, bd)
	par.For(m, par.GrainFor(2*ka*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mulRow(dd[i*n:(i+1)*n], ad[i*ka:], 1, bd, ka, skip)
		}
	})
}

// MatMulTransA computes dst = aᵀ·b for a (k×m) and b (k×n); dst is m×n.
func MatMulTransA(dst, a, b *Tensor) {
	k, m, n := transADims("MatMulTransA", dst, a, b)
	ad, bd, dd := a.Data, b.Data, dst.Data
	skip := skipZeros(ad, bd)
	par.For(m, par.GrainFor(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mulRow(dd[i*n:(i+1)*n], ad[i:], m, bd, k, skip)
		}
	})
}

// AddMatMulTransA computes dst += aᵀ·b for a (k×m) and b (k×n); dst is m×n.
// Each row's product sum is formed from zero in a scratch row (one per
// shard) and only then added, through add as AddInPlace adds — the
// arithmetic of MatMulTransA into a temporary followed by AddInPlace,
// without the m×n temporary.
func AddMatMulTransA(dst, a, b *Tensor) {
	k, m, n := transADims("AddMatMulTransA", dst, a, b)
	ad, bd, dd := a.Data, b.Data, dst.Data
	skip := skipZeros(ad, bd)
	par.For(m, par.GrainFor(2*k*n), func(lo, hi int) {
		sum := make([]float32, n)
		for i := lo; i < hi; i++ {
			mulRow(sum, ad[i:], m, bd, k, skip)
			add(dd[i*n:][:n], sum)
		}
	})
}

// transADims checks the shapes of dst (m×n) = aᵀ·b for a (k×m) and b (k×n).
func transADims(name string, dst, a, b *Tensor) (k, m, n int) {
	k, m = a.Shape[0], a.Shape[1]
	kb, n := b.Shape[0], b.Shape[1]
	if k != kb {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", name, k, kb))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", name, dst.Shape, m, n))
	}
	return k, m, n
}

// MatMulTransB computes dst = a·bᵀ for a (m×k) and b (n×k); dst is m×n.
// Where there are SIMD lanes it runs them across a's rows
// (matMulTransBLanes); otherwise a row of a that is sparse enough
// (sparseRow) goes through dotRowSkip, every other row through dot4.
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
	if matMulTransBLanes(dd, ad, bd, m, k, n) {
		return
	}
	skip := skipZeros(ad, bd)
	par.For(m, par.GrainFor(2*k*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow, drow := ad[i*k:(i+1)*k], dd[i*n:(i+1)*n]
			if skip && sparseRow(arow) {
				dotRowSkip(drow, arow, bd)
				continue
			}
			j := 0
			for ; j+4 <= n; j += 4 {
				drow[j], drow[j+1], drow[j+2], drow[j+3] = dot4(arow,
					bd[j*k:], bd[(j+1)*k:], bd[(j+2)*k:], bd[(j+3)*k:])
			}
			for ; j < n; j++ {
				drow[j] = dot1(arow, bd[j*k:])
			}
		}
	})
}

// validSpan returns the outputs [lo, hi) of out whose input coordinate
// o·stride + off falls inside [0, in); every other output reads padding.
func validSpan(out, in, stride, off int) (lo, hi int) {
	if off < 0 {
		lo = (stride - 1 - off) / stride
	}
	if last := in - 1 - off; last >= 0 {
		hi = min(out, last/stride+1)
	}
	return min(lo, hi), hi
}

// Im2Col lowers a CHW image into a matrix of shape
// (channels*kh*kw) × (outH*outW) so convolution becomes MatMul.
// img must have shape [channels, height, width]. The valid span of each
// kernel row and column is computed once, so whole output rows are
// zero-filled, copied (stride 1) or stride-walked without a per-element
// bounds test.
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
			oyLo, oyHi := validSpan(outH, h, stride, ky-pad)
			for kx := 0; kx < kw; kx++ {
				oxLo, oxHi := validSpan(outW, w, stride, kx-pad)
				row := (ch*kh+ky)*kw + kx
				drow := dd[row*cols : (row+1)*cols]
				clear(drow[:oyLo*outW])
				clear(drow[oyHi*outW:])
				for oy := oyLo; oy < oyHi; oy++ {
					out := drow[oy*outW : (oy+1)*outW]
					in := id[(ch*h+oy*stride+ky-pad)*w:][:w]
					clear(out[:oxLo])
					clear(out[oxHi:])
					ix := oxLo*stride + kx - pad
					if stride == 1 && oxLo < oxHi {
						copy(out[oxLo:oxHi], in[ix:])
						continue
					}
					for ox := oxLo; ox < oxHi; ox++ {
						out[ox] = in[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// Col2Im is Im2Col's adjoint, used by the convolution backward pass: it
// sums a column matrix back into the CHW image img. cols is Im2Col's matrix
// transposed, (outH*outW) × (channels*kh*kw) — the layout in which conv's
// input gradient is a product with the output gradient as its coefficient
// operand. It gathers: every image element is written once, as a sum that
// starts at +0 and takes its contributions in (ky, kx) order. A kernel
// offset reaches an element from at most one output position; the offsets
// that would reach it from padding or from between strides are left out.
// The taps of an image position are the same in every channel, kh·kw
// floats apart, so they are found once per position and four channels'
// sums are carried at a time, as dot4 carries four outputs.
func Col2Im(img, cols *Tensor, kh, kw, stride, pad int) {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows, kk, hw := c*kh*kw, kh*kw, h*w
	if cols.Shape[0] != outH*outW || cols.Shape[1] != rows {
		panic(fmt.Sprintf("tensor: Col2Im cols %v, want [%d %d]", cols.Shape, outH*outW, rows))
	}
	id, cd := img.Data, cols.Data
	// One step to the next tap: kx += stride moves ox back by one, and
	// ky += stride moves oy back by one.
	xstep, ystep := stride-rows, stride*kw-outW*rows
	for iy := 0; iy < h; iy++ {
		kyLo, kyHi, oy := taps((iy+pad)/stride, (iy+pad)%stride, kh, outH, stride)
		// t = ix + pad = q·stride + r, carried along the row.
		q, r := pad/stride, pad%stride
		for ix := 0; ix < w; ix++ {
			kxLo, kxHi, ox := taps(q, r, kw, outW, stride)
			if r++; r == stride {
				q, r = q+1, 0
			}
			base := (oy*outW+ox)*rows + kyLo*kw + kxLo // channel 0's first tap
			d := id[iy*w+ix:]
			ch := 0
			for ; ch+4 <= c; ch += 4 {
				var s0, s1, s2, s3 float32
				for ky, yo := kyLo, base; ky <= kyHi; ky, yo = ky+stride, yo+ystep {
					for kx, o := kxLo, yo; kx <= kxHi; kx, o = kx+stride, o+xstep {
						v := cd[o : o+3*kk+1]
						s0 += v[0]
						s1 += v[kk]
						s2 += v[2*kk]
						s3 += v[3*kk]
					}
				}
				d[ch*hw], d[(ch+1)*hw], d[(ch+2)*hw], d[(ch+3)*hw] = s0, s1, s2, s3
				base += 4 * kk
			}
			for ; ch < c; ch++ {
				var s float32
				for ky, yo := kyLo, base; ky <= kyHi; ky, yo = ky+stride, yo+ystep {
					for kx, o := kxLo, yo; kx <= kxHi; kx, o = kx+stride, o+xstep {
						s += cd[o]
					}
				}
				d[ch*hw] = s
				base += kk
			}
		}
	}
}

// taps returns the kernel offsets kLo, kLo+stride, …, up to kHi that reach
// the input coordinate t−pad, t = q·stride + r, from an output inside
// [0, out), and the output oLo that kLo reaches it from. kLo > kHi means
// none does.
func taps(q, r, k, out, stride int) (kLo, kHi, oLo int) {
	t := q*stride + r
	return max(r, t-(out-1)*stride), min(k-1, t), min(q, out-1)
}

// ConvOutSize returns the output spatial size of a convolution/pooling with
// the given geometry.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
