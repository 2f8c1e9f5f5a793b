package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inceptionn/internal/par"
)

// The ref* functions are the scalar loops the kernels in tensor.go
// replaced, kept verbatim (minus the row sharding, which never changed a
// row's arithmetic) as the statement of the accumulation contract: float32,
// from +0, ascending k, one s += x*y per term, nothing skipped — the
// kernels' zero skip must match them bit for bit. They are never called
// outside tests.

func refMatMul(dst, a, b *Tensor) {
	m, ka, n := a.Shape[0], a.Shape[1], b.Shape[1]
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := 0; i < m; i++ {
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
}

func refMatMulTransA(dst, a, b *Tensor) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := 0; i < m; i++ {
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
}

func refMatMulTransB(dst, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := 0; i < m; i++ {
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
}

func refAddInPlace(dst, o *Tensor) {
	for i, v := range o.Data {
		dst.Data[i] += v
	}
}

func refIm2Col(dst, img *Tensor, kh, kw, stride, pad int) {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := outH * outW
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

func refCol2Im(img, cols *Tensor, kh, kw, stride, pad int) {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	nCols := outH * outW
	clear(img.Data)
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

// operand returns a tensor of normal samples in which about a third of the
// elements are exact zeros and a few are −0 — what ReLU and its mask put
// into every matmul operand of a real step — and, if poisoned, three are
// NaN, +Inf and −Inf: few enough that most outputs of a large product stay
// finite and are still compared bit for bit.
func operand(rng *rand.Rand, poisoned bool, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, 1)
	for i := range t.Data {
		switch r := rng.Intn(48); {
		case r < 14:
			t.Data[i] = 0
		case r < 16:
			t.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	if poisoned {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Data[rng.Intn(len(t.Data))] = float32(v)
		}
	}
	return t
}

// transposed returns the transpose of the 2-D tensor t: Col2Im reads
// Im2Col's matrix in this layout.
func transposed(t *Tensor) *Tensor {
	m, n := t.Shape[0], t.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// garbage returns a tensor no kernel output may be confused with, so an
// element a kernel fails to write shows.
func garbage(shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(-12345.678)
	return t
}

// requireSameBits compares bit for bit, except that two NaNs of different
// payload count as equal (which NaN an x86 add returns depends on operand
// order inside the instruction, not on the accumulation order).
func requireSameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %g (%#08x), reference %g (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// coefficients returns an operand in which each element is an exact zero
// with probability zeros — a quarter of them −0 — and a normal sample
// otherwise: the coefficient side of a product, whose ±0 terms the kernels
// leave out when the other operand is all-finite.
func coefficients(rng *rand.Rand, zeros float64, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, 1)
	for i := range t.Data {
		if rng.Float64() < zeros {
			t.Data[i] = 0
			if rng.Intn(4) == 0 {
				t.Data[i] = float32(math.Copysign(0, -1))
			}
		}
	}
	return t
}

// requireKernelsMatch runs the four matmul entry points on a (m×k), its
// transposed twin at (k×m), b (k×n), bt (n×k) and the accumulator acc
// (m×n), and AddInPlace of the a·b product onto acc, on every kernel path,
// and compares each with its ref* loop bit for bit.
func requireKernelsMatch(t *testing.T, what string, a, at, b, bt, acc *Tensor) {
	t.Helper()
	m, n := a.Shape[0], b.Shape[1]
	wantMul, wantA, wantB, tmp := New(m, n), New(m, n), New(m, n), New(m, n)
	refMatMul(wantMul, a, b)
	refMatMulTransA(wantA, at, b)
	refMatMulTransB(wantB, a, bt)
	wantAdd := acc.Clone()
	refMatMulTransA(tmp, at, b)
	refAddInPlace(wantAdd, tmp)
	wantInPlace := acc.Clone()
	refAddInPlace(wantInPlace, wantMul)

	defer useKernelPath(useKernelPath("go"))
	for _, path := range kernelPaths() {
		useKernelPath(path)
		what := what + " path=" + path
		got := garbage(m, n)
		MatMul(got, a, b)
		requireSameBits(t, "MatMul "+what, got, wantMul)
		got = garbage(m, n)
		MatMulTransA(got, at, b)
		requireSameBits(t, "MatMulTransA "+what, got, wantA)
		got = garbage(m, n)
		MatMulTransB(got, a, bt)
		requireSameBits(t, "MatMulTransB "+what, got, wantB)
		got = acc.Clone()
		AddMatMulTransA(got, at, b)
		requireSameBits(t, "AddMatMulTransA "+what, got, wantAdd)
		got = acc.Clone()
		got.AddInPlace(wantMul)
		requireSameBits(t, "AddInPlace "+what, got, wantInPlace)
	}
}

// TestKernelsMatchReferenceBits is the accumulation contract checked
// differentially, on every kernel path: the benchmark's shapes and conv's
// weight gradient, every residue of k and n mod 4 (the listed odd shapes
// plus all of k, n ≤ 9), every row length n up to 67 and 8j ± 1 (the axpy
// lanes' whole blocks and each length of the Go tail after them), every
// row count m up to 17 and 31, 33 (each amount of a 16-row panel's
// padding, both sides of a panel boundary; from m = 8 on with every n mod
// 4, so the dot form's tail columns meet partial panels), k on both sides
// of the panel depth's multiples (the dot form's running sums carried
// across blocks), clean and poisoned operands, coefficient operands from
// no exact zeros to all of them (the zero skip's dispatch both ways), every
// worker count that changes the sharding.
func TestKernelsMatchReferenceBits(t *testing.T) {
	shapes := [][3]int{
		{16, 500, 500}, {16, 784, 500}, {16, 500, 10}, {4, 784, 500}, {32, 144, 256}, {32, 256, 144},
		{1, 1, 1}, {3, 5, 7}, {5, 9, 3}, {7, 13, 17}, {2, 4, 4},
	}
	for k := 1; k <= 9; k++ {
		for n := 1; n <= 9; n++ {
			shapes = append(shapes, [3]int{3, k, n})
		}
	}
	for n := 10; n <= 67; n++ {
		shapes = append(shapes, [3]int{2, 6, n})
	}
	for _, n := range []int{127, 129, 503, 505} {
		shapes = append(shapes, [3]int{2, 7, n})
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33} {
		if m < 8 {
			shapes = append(shapes, [3]int{m, 11, 6})
			continue
		}
		for n := 4; n <= 7; n++ {
			shapes = append(shapes, [3]int{m, 11, n})
		}
	}
	shapes = append(shapes, [3]int{16, 255, 5}, [3]int{17, 256, 6}, [3]int{5, 257, 7}, [3]int{33, 513, 9}, [3]int{3, 1024, 4})
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	rng := rand.New(rand.NewSource(23))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, poisoned := range []bool{false, true} {
			a, at := operand(rng, poisoned, m, k), operand(rng, poisoned, k, m)
			b, bt := operand(rng, poisoned, k, n), operand(rng, poisoned, n, k)
			acc := operand(rng, false, m, n) // a non-zero gradient accumulator
			for _, workers := range []int{1, 2, 3, 5} {
				par.SetMaxWorkers(workers)
				requireKernelsMatch(t, fmt.Sprintf("%v poisoned=%v workers=%d", s, poisoned, workers), a, at, b, bt, acc)
			}
			for _, zeros := range []float64{0, 0.5, 0.86, 1} {
				a, at := coefficients(rng, zeros, m, k), coefficients(rng, zeros, k, m)
				for _, workers := range []int{1, 2} {
					par.SetMaxWorkers(workers)
					requireKernelsMatch(t, fmt.Sprintf("%v poisoned=%v zeros=%v workers=%d", s, poisoned, zeros, workers), a, at, b, bt, acc)
				}
			}
		}
	}
}

// TestSkippedTermsStillPoison puts NaN and ±Inf only where every term that
// reads them has a ±0 coefficient: the rows of b (columns, for the dot
// form) whose coefficient is zero in every output row. It is the one input
// on which leaving out the zero terms without the finiteness guard returns
// finite numbers; IEEE 754 and the ref* loops say NaN.
func TestSkippedTermsStillPoison(t *testing.T) {
	const m, k, n = 5, 11, 6
	rng := rand.New(rand.NewSource(31))
	dead := []int{2, 7, 10} // the terms p every output row skips
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

	a, at := coefficients(rng, 0.3, m, k), coefficients(rng, 0.3, k, m)
	b, bt := coefficients(rng, 0, k, n), coefficients(rng, 0, n, k)
	for _, p := range dead {
		for i := 0; i < m; i++ {
			a.Set(i, p, float32(math.Copysign(0, float64(i%2)-0.5)))
			at.Set(p, i, 0)
		}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				b.Set(p, j, poison[rng.Intn(len(poison))])
				bt.Set(j, p, poison[rng.Intn(len(poison))])
			}
		}
	}
	acc := coefficients(rng, 0.2, m, n)

	want := New(m, n)
	refMatMul(want, a, b)
	if countNaN(want) == 0 {
		t.Fatal("the case poisons nothing: no output of the reference is NaN")
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, workers := range []int{1, 2} {
		par.SetMaxWorkers(workers)
		requireKernelsMatch(t, fmt.Sprintf("poison under dead terms, workers=%d", workers), a, at, b, bt, acc)
	}
}

func countNaN(x *Tensor) int {
	c := 0
	for _, v := range x.Data {
		if v != v {
			c++
		}
	}
	return c
}

// laneLengths are the row lengths the axpy kernels and allFinite are
// checked at: every length up to 67 (no whole 8-float block, one to eight
// of them, each length of the portable tail after them) and 8j ± 1 around
// the benchmark's rows.
func laneLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 129, 255, 257, 503, 505)
}

// laneRow returns a row of n floats that starts off floats into its
// allocation, so the AVX2 loads meet every alignment. About one element in
// eight is one of special; a fifth are scaled by 1e-19, so that products
// of two of them fall into the subnormals or to zero; the rest are normal
// samples.
func laneRow(rng *rand.Rand, n, off int, special []float32) []float32 {
	x := make([]float32, off+n)[off:]
	for i := range x {
		switch r := rng.Intn(40); {
		case r < 5 && len(special) > 0:
			x[i] = special[rng.Intn(len(special))]
		case r < 13:
			x[i] = float32(rng.NormFloat64() * 1e-19)
		default:
			x[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// TestAxpyKernelsMatchGoChain checks axpy4…axpy1 directly against the
// chain they compute, d[j] = ((d[j] + a0·b0[j]) + a1·b1[j]) + …, on every
// kernel path: every row length in laneLengths, rows starting at offsets
// 0–7 floats into their allocations, operands and coefficients holding NaN,
// ±Inf, ±0 and subnormals.
func TestAxpyKernelsMatchGoChain(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	special := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000), math.MaxFloat32}
	coefs := [][]float32{{1.5, -0.75, 3, -2}}
	for _, v := range special {
		coefs = append(coefs, []float32{v, 0.5, v, -1}, []float32{-1, v, 2, v})
	}
	rng := rand.New(rand.NewSource(37))
	defer useKernelPath(useKernelPath("go"))
	for _, n := range laneLengths() {
		for off := 0; off < 8; off++ {
			d := laneRow(rng, n, off, special)
			var b [4][]float32
			for r := range b {
				b[r] = laneRow(rng, n, (off+2*r+1)%8, special)
			}
			for _, a := range coefs {
				for rows := 1; rows <= 4; rows++ {
					want := append([]float32(nil), d...)
					for j := range want {
						s := want[j]
						for r := 0; r < rows; r++ {
							s += a[r] * b[r][j]
						}
						want[j] = s
					}
					for _, path := range kernelPaths() {
						useKernelPath(path)
						got := append(make([]float32, off, off+n), d...)[off:]
						switch rows {
						case 4:
							axpy4(got, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
						case 3:
							axpy3(got, b[0], b[1], b[2], a[0], a[1], a[2])
						case 2:
							axpy2(got, b[0], b[1], a[0], a[1])
						case 1:
							axpy1(got, b[0], a[0])
						}
						requireSameBits(t, fmt.Sprintf("axpy%d n=%d off=%d a=%v path=%s", rows, n, off, a[:rows], path),
							FromSlice(got, n), FromSlice(want, n))
					}
				}
			}
		}
	}
}

// refAdd is the loop Add replaces, d[i] += s[i], in the form whose
// -gcflags=-S listing adds s[i] to a loaded d[i] (d the first operand, the
// one whose NaN a sum of two NaNs returns on amd64).
//
//go:noinline
func refAdd(d, s []float32) {
	s = s[:len(d)]
	for i := range d {
		d[i] += s[i]
	}
}

// TestAddMatchesPlainLoopBits holds Add to refAdd bit for bit on every
// kernel path, NaN payloads included: every length 0–17 and 8k ± 1, both
// operands starting at offsets 0–7 floats into their allocations, and
// elements drawn from ±0, ±Inf, subnormals, quiet and signalling NaNs
// with distinct payloads in either operand or both, and normal values.
func TestAddMatchesPlainLoopBits(t *testing.T) {
	var special []float32
	for _, b := range []uint32{
		0, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		1, 0x807fffff, 0x00400000, // subnormals
		0x7fc00000, 0xffc00001, 0x7fe12345, // quiet NaNs
		0x7f800001, 0xff812345, 0x7fa00000, // signalling NaNs
		0x3f800000, 0xc0490fdb, 0x7f7fffff, 0x00800000,
	} {
		special = append(special, math.Float32frombits(b))
	}
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 8<<10-1, 8<<10, 8<<10+1)
	rng := rand.New(rand.NewSource(51))
	defer useKernelPath(useKernelPath("go"))
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			d := make([]float32, off+n)[off:]
			s := make([]float32, (off+3)%8+n)[(off+3)%8:]
			for i := range d {
				d[i] = special[rng.Intn(len(special))]
				s[i] = special[rng.Intn(len(special))]
			}
			want := append([]float32(nil), d...)
			refAdd(want, s)
			for _, path := range kernelPaths() {
				useKernelPath(path)
				got := append(make([]float32, off, off+n), d...)[off:]
				Add(got, s)
				for i := range got {
					if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
						t.Fatalf("n=%d off=%d path=%s: %#08x + %#08x = %#08x, plain loop %#08x",
							n, off, path, math.Float32bits(d[i]), math.Float32bits(s[i]), g, w)
					}
				}
			}
		}
	}
}

// TestAllFiniteFindsEveryPosition puts a single NaN or ±Inf at every
// position of rows of every length in laneLengths — every position mod 16,
// in the AVX2 blocks and in the tail — on every kernel path; a row of
// finite values, subnormals and zeros among them, must pass.
func TestAllFiniteFindsEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	finite := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
	defer useKernelPath(useKernelPath("go"))
	for _, path := range kernelPaths() {
		useKernelPath(path)
		for _, n := range laneLengths() {
			for _, off := range []int{0, 3, 5} {
				x := laneRow(rng, n, off, finite)
				if !allFinite(x) {
					t.Fatalf("path=%s n=%d off=%d: a finite row reads non-finite", path, n, off)
				}
				for p := range x {
					for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
						keep := x[p]
						x[p] = float32(v)
						if allFinite(x) {
							t.Fatalf("path=%s n=%d off=%d: %v at %d reads finite", path, n, off, v, p)
						}
						x[p] = keep
					}
				}
			}
		}
	}
}

// TestIm2ColCol2ImMatchReferenceBits sweeps every geometry of the listed
// sizes that has at least one output (kernels wider than the image, spans
// that are empty on one side, strides that skip the last column), with the
// destination pre-filled so an unwritten element shows. The square-kernel
// subset is the 1,302 geometries the rewrite was sized on.
func TestIm2ColCol2ImMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	square, all := 0, 0
	for _, c := range []int{1, 3} {
		for _, h := range []int{1, 2, 5, 8} {
			for _, w := range []int{1, 3, 7, 8} {
				for _, kh := range []int{1, 2, 3, 5} {
					for _, kw := range []int{1, 2, 3, 5} {
						for _, stride := range []int{1, 2, 3} {
							for _, pad := range []int{0, 1, 2, 4} {
								if h+2*pad < kh || w+2*pad < kw {
									continue
								}
								all++
								if kh == kw {
									square++
								}
								what := fmt.Sprintf("c=%d h=%d w=%d kh=%d kw=%d stride=%d pad=%d", c, h, w, kh, kw, stride, pad)
								rows := c * kh * kw
								cols := ConvOutSize(h, kh, stride, pad) * ConvOutSize(w, kw, stride, pad)

								img := operand(rng, true, c, h, w)
								got, want := garbage(rows, cols), garbage(rows, cols)
								Im2Col(got, img, kh, kw, stride, pad)
								refIm2Col(want, img, kh, kw, stride, pad)
								requireSameBits(t, "Im2Col "+what, got, want)

								mat := operand(rng, true, rows, cols)
								back, wantBack := garbage(c, h, w), garbage(c, h, w)
								Col2Im(back, transposed(mat), kh, kw, stride, pad)
								refCol2Im(wantBack, mat, kh, kw, stride, pad)
								requireSameBits(t, "Col2Im "+what, back, wantBack)
							}
						}
					}
				}
			}
		}
	}
	if square != 1302 {
		t.Errorf("swept %d square-kernel geometries (%d in all), want 1302", square, all)
	}
}

// The benchmarks time the calls bench/perf/micro.go times, at its shapes
// and in its units, so `go test -run '^$' -bench . -cpu 1,2
// ./internal/tensor` and the benchmark's tensor.matmul_*_gflops /
// tensor.im2col_mb_s are the same quantities.

func benchFilled(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, 1)
	return t
}

func BenchmarkMatMul(b *testing.B) {
	// The HDC hidden layer at batch 16: forward, weight gradient, input
	// gradient; then mini-AlexNet's conv2 on one sample.
	rng := rand.New(rand.NewSource(1))
	x, w, dout := benchFilled(rng, 16, 500), benchFilled(rng, 500, 500), benchFilled(rng, 16, 500)
	y, gw, dx := New(16, 500), New(500, 500), New(16, 500)
	filt, cols, out := benchFilled(rng, 32, 16*9), benchFilled(rng, 16*9, 16*16), New(32, 16*16)
	// The input gradient as HDC runs it, with ReLU's zeros in dout, at
	// batch 16 and 4, and mini-AlexNet's conv weight gradients dres·colsᵀ
	// with max-pool's.
	dout50, dout50b4, dxb4 := coefficients(rng, 0.5, 16, 500), coefficients(rng, 0.5, 4, 500), New(4, 500)
	type wgrad struct{ dres, cols, gw *Tensor }
	convWGrad := func(outC, rows, spatial int) wgrad {
		return wgrad{coefficients(rng, 0.86, outC, spatial), benchFilled(rng, rows, spatial), New(outC, rows)}
	}
	conv1, conv2, conv3 := convWGrad(16, 27, 32*32), convWGrad(32, 144, 16*16), convWGrad(64, 288, 8*8)
	wgradFlop := func(g wgrad) float64 {
		return 2.0 * float64(g.dres.Shape[0]*g.dres.Shape[1]*g.cols.Shape[0]) / 1e9
	}
	for _, c := range []struct {
		name  string
		gflop float64
		call  func()
	}{
		{"dense", 2.0 * 16 * 500 * 500 / 1e9, func() { MatMul(y, x, w) }},
		{"transa", 2.0 * 16 * 500 * 500 / 1e9, func() { MatMulTransA(gw, x, dout) }},
		{"transb", 2.0 * 16 * 500 * 500 / 1e9, func() { MatMulTransB(dx, dout, w) }},
		{"transb_hdc_zeros50", 2.0 * 16 * 500 * 500 / 1e9, func() { MatMulTransB(dx, dout50, w) }},
		{"transb_hdc_b4_zeros50", 2.0 * 4 * 500 * 500 / 1e9, func() { MatMulTransB(dxb4, dout50b4, w) }},
		{"transb_conv1_zeros86", wgradFlop(conv1), func() { MatMulTransB(conv1.gw, conv1.dres, conv1.cols) }},
		{"transb_conv2_zeros86", wgradFlop(conv2), func() { MatMulTransB(conv2.gw, conv2.dres, conv2.cols) }},
		{"transb_conv3_zeros86", wgradFlop(conv3), func() { MatMulTransB(conv3.gw, conv3.dres, conv3.cols) }},
		{"conv", 2.0 * 32 * 16 * 9 * 16 * 16 / 1e9, func() { MatMul(out, filt, cols) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.call()
			}
			b.ReportMetric(c.gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

func BenchmarkIm2Col(b *testing.B) {
	img, cols := benchFilled(rand.New(rand.NewSource(1)), 16, 16, 16), New(16*9, 16*16)
	for i := 0; i < b.N; i++ {
		Im2Col(cols, img, 3, 3, 1, 1)
	}
	b.ReportMetric(float64(4*cols.Len())/1e6*float64(b.N)/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkAdd times the reduce add on each kernel path over 37,888
// floats, a block that stays in cache; its MB/s count the floats added.
func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, s := benchFilled(rng, 37888).Data, benchFilled(rng, 37888).Data
	defer useKernelPath(useKernelPath("go"))
	for _, path := range kernelPaths() {
		b.Run(path, func(b *testing.B) {
			useKernelPath(path)
			b.SetBytes(4 * int64(len(d)))
			for i := 0; i < b.N; i++ {
				Add(d, s)
			}
		})
	}
}

// FuzzKernels checks the four matmul entry points, AddInPlace and Col2Im
// against their ref* loops on operands of arbitrary float32 bits. The first
// three bytes give m in [1, 33] (up to three of the dot form's 16-row
// panels), k and n in [1, 9]; the rest are little-endian floats that fill a
// (m×k), b (k×n), the accumulator (m×n) and then Col2Im's column matrix in
// turn, zero-padded when the input runs out. a's and b's data, read as k×m
// and n×k, are the transposed operands. The same three bytes, read past
// their residue mod 9, give Col2Im's geometry (its check is independent of
// the matmuls', so m's wider residue may overlap it): 1, 4 or 7 channels (the
// single-channel tail, one group of four, both), height
// and width in [1, 8], kernel sides in [1, 4], stride in [1, 3] and padding
// in [0, 2].
func FuzzKernels(f *testing.F) {
	le := func(vs ...float32) []byte {
		out := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			u := math.Float32bits(v)
			out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		return out
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero, denorm := float32(math.Copysign(0, -1)), math.Float32frombits(1)
	f.Add([]byte{0, 0, 0})
	f.Add(append([]byte{1, 2, 1}, le(0, negZero, 1, 2, inf, 3, 4, 5, 6, 7, 8, 9)...))
	f.Add(append([]byte{2, 3, 4}, le(0, 0, 1, negZero, 0, 2, 0, 0, 0, 0, 0, 0,
		nan, 1, 2, 3, -inf, 4, 5, 6, denorm, -denorm, 0, 1)...))
	f.Add(append([]byte{8, 8, 8}, le(1e38, 1e38, 1e38, 1e38, -1e38, 0, 0, denorm, 3e-39, 0, 1)...))
	f.Add(append([]byte{16, 4, 6}, le(1, 0, negZero, 2, nan, 3, 0, 0, -inf, 4, 5, 0, denorm, 6, 7, 8, 0, 9, inf, 1)...)) // m=17, one row into a second panel
	// a (16×9) and b (9×5): a full panel, no padding rows, and a tail column.
	full := make([]float32, 16*9+9*5)
	for i := range full {
		full[i] = float32(i%13 - 6)
	}
	f.Add(append([]byte{15, 8, 4}, le(full...)...))
	// Col2Im at c=4 5×7, 3×3, stride 2, pad 1: the matmuls (m=7, k=1, n=1)
	// read the first 15 floats, Col2Im's column matrix the rest.
	f.Add(append([]byte{171, 180, 126}, le(1, negZero, 0, 2, -3, negZero, 4, 5, 0, 1, 2, 3, 4, 5, 6,
		0, nan, 2, 3, 0, inf, 0, 4, 5, 6, 7, 0, 0, 8, 9, 10, 11)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := 1+int(data[0])%33, 1+int(data[1])%9, 1+int(data[2])%9
		c, h, w := 1+3*(int(data[0]/9)%3), 1+int(data[1]/9)%8, 1+int(data[2]/9)%8
		kh, kw := 1+int(data[0]/27)%4, 1+int(data[1]/72)%4
		stride, pad := 1+int(data[2]/72)%3, int(data[0]/108)%3
		data = data[3:]
		next := func(count int) []float32 {
			vs := make([]float32, count)
			for i := range vs {
				var w [4]byte
				data = data[copy(w[:], data):]
				vs[i] = math.Float32frombits(uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24)
			}
			return vs
		}
		ad, bd, accd := next(m*k), next(k*n), next(m*n)
		requireKernelsMatch(t, fmt.Sprintf("m=%d k=%d n=%d", m, k, n),
			FromSlice(ad, m, k), FromSlice(ad, k, m), FromSlice(bd, k, n), FromSlice(bd, n, k), FromSlice(accd, m, n))

		if h+2*pad < kh || w+2*pad < kw {
			return
		}
		rows, cols := c*kh*kw, ConvOutSize(h, kh, stride, pad)*ConvOutSize(w, kw, stride, pad)
		mat := FromSlice(next(rows*cols), rows, cols)
		got, want := garbage(c, h, w), garbage(c, h, w)
		Col2Im(got, transposed(mat), kh, kw, stride, pad)
		refCol2Im(want, mat, kh, kw, stride, pad)
		requireSameBits(t, fmt.Sprintf("Col2Im c=%d h=%d w=%d kh=%d kw=%d stride=%d pad=%d", c, h, w, kh, kw, stride, pad), got, want)
	})
}
