package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"inceptionn/internal/nn"
	"inceptionn/internal/tensor"
)

// refStep is the update as it ran before StepScaled fused it: the 1/N
// averaging pass over the summed gradient, then SGD.Step's three
// expressions, then ZeroGrads' clear. Its operands are in the order the
// compiler emitted for those loops (G·scale, W·decay + G, V·mom − g·lr,
// W + V), spelled out with add and mul so that the reference does not hang
// on how this file's own operands get ordered. It is what both kernel
// paths must equal bit for bit, NaN payloads included. Never called
// outside tests.
func refStep(w, v, g []float32, scale, decay, mom, lr float32) {
	for i := range g {
		g[i] = mul(g[i], scale)
	}
	for i := range v {
		gi := add(mul(w[i], decay), g[i])
		v[i] = mul(v[i], mom) - mul(gi, lr)
		w[i] = add(w[i], v[i])
	}
	clear(g)
}

// add and mul are a+b and a·b as an x86 add or multiply computes them
// with a as the first source: where both are NaN, a's payload, quieted.
// Where one is, the sum or product is that NaN quieted in either order.
func add(a, b float32) float32 {
	if a != a && b != b {
		return quiet(a)
	}
	return a + b
}

func mul(a, b float32) float32 {
	if a != a && b != b {
		return quiet(a)
	}
	return a * b
}

func quiet(nan float32) float32 { return math.Float32frombits(math.Float32bits(nan) | 1<<22) }

// onKernelPaths runs f as a subtest on each kernel path.
func onKernelPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range kernelPaths() {
		t.Run(path, func(t *testing.T) {
			defer useKernelPath(useKernelPath(path))
			f(t)
		})
	}
}

// specials are the values the update must carry through exactly: signed
// zeros, infinities, quiet NaNs of several payloads and both signs, and
// subnormals at both ends of their range.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00001),
	math.Float32frombits(0xffc00000), math.Float32frombits(0xffd2b4c3),
	math.Float32frombits(0x7fe00f00),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00400000), math.Float32frombits(0x80000003),
}

// mixed returns n values, about one in four drawn from specials and the
// rest normal samples of the given scale.
func mixed(rng *rand.Rand, n int, scale float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = float32(rng.NormFloat64() * scale)
		}
	}
	return out
}

// requireSameBits fails the test at the first element of got whose bits
// differ from want's.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g (%#08x), reference %g (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// span is one parameter of a layout: its length and Decay flag.
type span struct {
	n     int
	decay bool
}

// layouts splits n values into parameters: one decayed parameter of all
// n, and three — decayed, undecayed, decayed — cut at n/3 and n/3+n/5, so
// each parameter's blocks and tail move against the lanes.
func layouts(n int) [][]span {
	cut1, cut2 := n/3, n/3+n/5
	return [][]span{{{n, true}}, {{cut1, true}, {cut2 - cut1, false}, {n - cut2, true}}}
}

// requireStepMatches runs one StepScaled in place over w, v and g, as the
// weights, velocity and gradient of parameters laid out as spans, and
// checks all three against refStep applied parameter by parameter.
func requireStepMatches(t *testing.T, what string, spans []span, w, v, g []float32, scale float32, s *SGD) {
	t.Helper()
	wantW, wantV, wantG := slices.Clone(w), slices.Clone(v), slices.Clone(g)
	params := make([]*nn.Param, len(spans))
	off := 0
	for i, sp := range spans {
		n := sp.n
		params[i] = &nn.Param{
			W:     &tensor.Tensor{Shape: []int{n}, Data: w[off : off+n]},
			G:     &tensor.Tensor{Shape: []int{n}, Data: g[off : off+n]},
			Decay: sp.decay,
		}
		decay := float32(s.WeightDecay)
		if !sp.decay {
			decay = 0
		}
		refStep(wantW[off:off+n], wantV[off:off+n], wantG[off:off+n], scale, decay, float32(s.Momentum), float32(s.LR))
		off += n
	}
	s.velocity = v
	s.StepScaled(params, scale)
	what = fmt.Sprintf("%s (%d parameters)", what, len(spans))
	requireSameBits(t, what+" W", w, wantW)
	requireSameBits(t, what+" V", v, wantV)
	requireSameBits(t, what+" G", g, wantG)
}

// stepLengths are the lengths the differential test sweeps: every tail
// with no block to one full block and a tail, around four blocks, around
// a 32 KB parameter, and the HDC model's 1,149,010 parameters.
func stepLengths() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 31, 32, 33, 8191, 8192, 8193, 1149010)
}

// TestStepMatchesReferenceBits: StepScaled on both kernel paths, over
// every length in stepLengths, with and without weight decay, undecayed
// parameters mixed in, at scale 1 (Step), 1/3 and 1/4 — weights, velocity
// and gradient bit for bit what refStep leaves, over values that mix
// ±0, ±Inf, NaN payloads and subnormals into G, W and V.
func TestStepMatchesReferenceBits(t *testing.T) {
	onKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for _, n := range stepLengths() {
			w, v, g := mixed(rng, n, 1), mixed(rng, n, 0.01), mixed(rng, n, 0.1)
			for _, wd := range []float64{0, 5e-4} {
				for _, scale := range []float32{1, float32(1) / 3, float32(1) / 4} {
					for li, spans := range layouts(n) {
						what := fmt.Sprintf("n=%d decay=%g scale=%g layout=%d", n, wd, scale, li)
						requireStepMatches(t, what, spans, slices.Clone(w), slices.Clone(v), slices.Clone(g), scale, NewSGD(0.05, 0.9, wd))
					}
				}
			}
		}
	})
}

// FuzzStep runs StepScaled on arbitrary float32 bits on both kernel paths
// against refStep. The input is little-endian floats: the scale, the
// decay, the momentum and the learning rate, then W, V and G element by
// element, the last partial element dropped. Every parameter is decayed;
// TestStepMatchesReferenceBits holds the undecayed ones.
func FuzzStep(f *testing.F) {
	le := func(vs ...float32) []byte {
		out := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	f.Add(le(1, 0, 0.9, 0.05))
	f.Add(append(le(0.25, 5e-4, 0.9, 0.05), le(specials...)...))
	rng := rand.New(rand.NewSource(1))
	f.Add(append(le(float32(1)/3, 5e-4, 0.9, 0.05), le(mixed(rng, 3*19, 1)...)...))
	f.Add(append(le(float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1)), 1e-45), le(mixed(rng, 3*8, 1)...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs []float32
		for ; len(data) >= 4; data = data[4:] {
			fs = append(fs, math.Float32frombits(binary.LittleEndian.Uint32(data)))
		}
		if len(fs) < 4 {
			return
		}
		scale, decay, mom, lr := fs[0], fs[1], fs[2], fs[3]
		n := (len(fs) - 4) / 3
		defer useKernelPath(useKernelPath("go"))
		for _, path := range kernelPaths() {
			useKernelPath(path)
			w, v, g := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range n {
				w[i], v[i], g[i] = fs[4+3*i], fs[5+3*i], fs[6+3*i]
			}
			s := &SGD{LR: float64(lr), Momentum: float64(mom), WeightDecay: float64(decay)}
			requireStepMatches(t, fmt.Sprintf("path=%s n=%d", path, n), []span{{n, true}}, w, v, g, scale, s)
		}
	})
}
