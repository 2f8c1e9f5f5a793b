package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inceptionn/internal/par"
	"inceptionn/internal/tensor"
)

// randInput returns a [batch, inC, h, w] tensor of N(0,1) values.
func randInput(rng *rand.Rand, batch, inC, h, w int) *tensor.Tensor {
	x := tensor.New(batch, inC, h, w)
	x.FillRandn(rng, 1)
	return x
}

// TestConvColsCacheSurvivesBatchResize is the regression test for the
// cache-thrash bug: the old guard (`len(c.cols) != batch`) discarded the
// entire im2col cache whenever the batch size changed, so a trailing
// partial batch reallocated every matrix on each subsequent step. The
// cache must survive a shrink-then-grow sequence and keep producing
// correct outputs.
func TestConvColsCacheSurvivesBatchResize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", 3, 4, 3, 1, 1, rng)

	// Reference layer with identical weights, fed fresh each time.
	ref := NewConv2D("ref", 3, 4, 3, 1, 1, rand.New(rand.NewSource(99)))
	copy(ref.w.W.Data, c.w.W.Data)
	copy(ref.b.W.Data, c.b.W.Data)

	check := func(x *tensor.Tensor) {
		t.Helper()
		got := c.Forward(x, true)
		want := ref.Forward(x, true)
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("batch %d idx %d: %g vs %g", x.Shape[0], i, got.Data[i], want.Data[i])
			}
		}
	}

	check(randInput(rng, 4, 3, 8, 8)) // warm the cache at batch 4
	ptrs := make([]*tensor.Tensor, 4)
	copy(ptrs, c.cols[:4])

	check(randInput(rng, 2, 3, 8, 8)) // trailing partial batch (shrink)
	check(randInput(rng, 4, 3, 8, 8)) // back to full batch (grow)

	for i, p := range ptrs {
		if c.cols[i] != p {
			t.Fatalf("cols[%d] reallocated across shrink-then-grow", i)
		}
	}

	// Geometry change must invalidate per entry (both dims checked), and
	// the output must still be correct.
	check(randInput(rng, 4, 3, 6, 6))
	if c.cols[0].Shape[1] != 6*6 {
		t.Fatalf("stale cols geometry: %v", c.cols[0].Shape)
	}
	// And growing past any previously seen batch size still works.
	check(randInput(rng, 6, 3, 6, 6))
}

// TestConvForwardBackwardParallelBitIdentical pins the determinism
// contract of the batch-parallel convolution: outputs, input gradients,
// and accumulated weight/bias gradients are bit-for-bit identical for any
// worker count.
func TestConvForwardBackwardParallelBitIdentical(t *testing.T) {
	run := func(workers int) (out, dx, gw, gb []float32) {
		prev := par.SetMaxWorkers(workers)
		defer par.SetMaxWorkers(prev)
		rng := rand.New(rand.NewSource(5))
		c := NewConv2D("c", 3, 8, 3, 1, 1, rng)
		x := randInput(rng, 5, 3, 10, 10)
		y := c.Forward(x, true)
		dout := tensor.New(y.Shape...)
		dout.FillRandn(rng, 1)
		dxT := c.Backward(dout)
		return y.Data, dxT.Data, c.w.G.Data, c.b.G.Data
	}
	wantOut, wantDx, wantGw, wantGb := run(1)
	for _, workers := range []int{2, 4, 7} {
		out, dx, gw, gb := run(workers)
		for name, pair := range map[string][2][]float32{
			"out": {out, wantOut}, "dx": {dx, wantDx}, "gw": {gw, wantGw}, "gb": {gb, wantGb},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s length %d vs %d", workers, name, len(got), len(want))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("workers=%d %s idx %d: %g vs %g", workers, name, i, got[i], want[i])
				}
			}
		}
	}
}

// refConvBackward is Conv2D.Backward's arithmetic as it was before the input
// gradient took dres as its coefficient operand, in scalar loops: per
// sample, gw = dres·colsᵀ and db = dres's row sums, added to the
// accumulators gw0 and gb0 in ascending sample order; dcols = Wᵀ·dres
// ((c·k·k) × (outH·outW), every term from +0 in ascending oc, none
// skipped), then scattered into the image in (ky, kx, oy, ox) order. It is
// the reference the rewrite must match bit for bit.
func refConvBackward(c *Conv2D, x, dout *tensor.Tensor, gw0, gb0 []float32) (dx, gw, gb []float32) {
	batch, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	k, s, pad := c.K, c.Stride, c.Pad
	outH, outW := tensor.ConvOutSize(h, k, s, pad), tensor.ConvOutSize(w, k, s, pad)
	rows, spatial := c.InC*k*k, outH*outW
	W := c.w.W.Data
	dx = make([]float32, x.Len())
	gw, gb = append([]float32(nil), gw0...), append([]float32(nil), gb0...)
	for bi := 0; bi < batch; bi++ {
		cols := tensor.New(rows, spatial)
		tensor.Im2Col(cols, tensor.FromSlice(x.Data[bi*c.InC*h*w:(bi+1)*c.InC*h*w], c.InC, h, w), k, k, s, pad)
		dres := dout.Data[bi*c.OutC*spatial : (bi+1)*c.OutC*spatial]
		for oc := 0; oc < c.OutC; oc++ {
			for r := 0; r < rows; r++ {
				var v float32
				for p := 0; p < spatial; p++ {
					v += dres[oc*spatial+p] * cols.Data[r*spatial+p]
				}
				gw[oc*rows+r] += v
			}
		}
		for oc := 0; oc < c.OutC; oc++ {
			var v float32
			for p := 0; p < spatial; p++ {
				v += dres[oc*spatial+p]
			}
			gb[oc] += v
		}
		dcols := make([]float32, rows*spatial)
		for r := 0; r < rows; r++ {
			for oc := 0; oc < c.OutC; oc++ {
				for p := 0; p < spatial; p++ {
					dcols[r*spatial+p] += W[oc*rows+r] * dres[oc*spatial+p]
				}
			}
		}
		img := dx[bi*c.InC*h*w : (bi+1)*c.InC*h*w]
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					r := (ch*k+ky)*k + kx
					for oy := 0; oy < outH; oy++ {
						for ox := 0; ox < outW; ox++ {
							iy, ix := oy*s+ky-pad, ox*s+kx-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								img[(ch*h+iy)*w+ix] += dcols[r*spatial+oy*outW+ox]
							}
						}
					}
				}
			}
		}
	}
	return dx, gw, gb
}

// sparseGrad returns a normal-sample tensor in which each element is an
// exact zero with probability zeros, a quarter of them −0: the output
// gradient after ReLU's mask and max-pool's argmax.
func sparseGrad(rng *rand.Rand, zeros float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
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

// requireBits compares bit for bit; two NaNs of different payload count as
// equal (which NaN an x86 add returns depends on operand order).
func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", what, len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %g (%#08x), reference %g (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// TestConvBackwardMatchesOldFormulation: Conv2D.Backward's dx, dW and db
// are bit-identical to refConvBackward for strides 1 and 2, pads 0 and 1,
// output gradients from no exact zeros to all of them, and a W poisoned
// with NaN and ±Inf — which must poison dx as the dense product does,
// though the kernel now skips dres's zeros. Six input channels take
// Col2Im's four-channel path and its tail. Each layer takes two steps of
// different batch sizes at several worker counts, so its buffers are
// reused across steps and shards.
func TestConvBackwardMatchesOldFormulation(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	rng := rand.New(rand.NewSource(41))
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1} {
			for _, zeros := range []float64{0, 0.5, 0.86, 1} {
				for _, poisoned := range []bool{false, true} {
					for _, workers := range []int{1, 2, 3} {
						par.SetMaxWorkers(workers)
						c := NewConv2D("c", 6, 5, 3, stride, pad, rng)
						if poisoned {
							for _, v := range poison {
								c.w.W.Data[rng.Intn(c.w.W.Len())] = v
							}
						}
						for step, batch := range []int{4, 3} {
							what := fmt.Sprintf("stride=%d pad=%d zeros=%v poisoned=%v workers=%d step=%d",
								stride, pad, zeros, poisoned, workers, step)
							x := randInput(rng, batch, 6, 7, 6)
							y := c.Forward(x, true)
							dout := sparseGrad(rng, zeros, y.Shape...)
							gw0, gb0 := sparseGrad(rng, 0, c.OutC, 6*9), sparseGrad(rng, 0, 1, c.OutC)
							copy(c.w.G.Data, gw0.Data)
							copy(c.b.G.Data, gb0.Data)
							wantDx, wantGw, wantGb := refConvBackward(c, x, dout, gw0.Data, gb0.Data)
							dx := c.Backward(dout)
							requireBits(t, "dx "+what, dx.Data, wantDx)
							requireBits(t, "dW "+what, c.w.G.Data, wantGw)
							requireBits(t, "db "+what, c.b.G.Data, wantGb)
							nan := 0
							for _, v := range dx.Data {
								if v != v {
									nan++
								}
							}
							if poisoned && nan == 0 {
								t.Fatalf("%s: a poisoned W left dx finite", what)
							}
						}
					}
				}
			}
		}
	}
}
