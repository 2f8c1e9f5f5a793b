package opt

import "inceptionn/internal/par"

// The update runs eight lanes at a time in AVX2 (kernel_amd64.s) over the
// parameter's whole 8-float blocks and leaves the rest to stepGo. Each
// lane runs stepGo's update as VMULPS, VADDPS and VSUBPS with the operands
// in the order the compiler emits MULSS, ADDSS and SUBSS for the Go loop,
// never fused: the two paths are bit-identical, NaN payloads
// included (DESIGN.md §8, "the update in lanes").

// useAVX2 selects the AVX2 lanes: set once from the CPU, and by tests to
// run the differential tables on both paths.
var useAVX2 = par.HasAVX2()

// step is stepGo with w's whole 8-float blocks in AVX2 lanes.
func step(w, v, g []float32, scale, decay, mom, lr float32) {
	v, g = v[:len(w)], g[:len(w)]
	if n := len(w) &^ 7; useAVX2 && n > 0 {
		stepAVX2(&w[0], &v[0], &g[0], n, scale, decay, mom, lr)
		w, v, g = w[n:], v[n:], g[n:]
	}
	stepGo(w, v, g, scale, decay, mom, lr)
}

// stepAVX2 runs stepGo over n floats (n > 0, a multiple of 8) of w, v and
// grad, each at least n long (grad, not g: g names the goroutine register
// in Go assembly).
//
//go:noescape
func stepAVX2(w, v, grad *float32, n int, scale, decay, mom, lr float32)
