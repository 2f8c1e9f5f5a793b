package tensor

// The axpy kernels and the finiteness guard run eight lanes at a time in
// AVX2 (kernel_amd64.s) over a row's whole 8-float blocks and leave the
// rest to the portable bodies in tensor.go. Each lane computes
// d + a0·b0 + a1·b1 + … as one VMULPS and one VADDPS per term, in the
// Go chain's order and never fused, which is the MULSS + ADDSS the
// compiler emits for the Go loop: the two paths are bit-identical
// (DESIGN.md §8, "the AVX2 lanes").

// useAVX2 selects the AVX2 lanes: set once from the CPU, and by tests to
// run the differential tables on both paths.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set, XCR0's SSE and AVX
// state bits on).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// allFinite is allFiniteGo with x's whole 8-float blocks summed in AVX2
// lanes, in another order: either sum is non-finite if an element is.
func allFinite(x []float32) bool {
	var s float32
	if n := len(x) &^ 7; useAVX2 && n > 0 {
		s = sumAVX2(&x[0], n)
		x = x[n:]
	}
	return s-s == 0 && allFiniteGo(x)
}

// axpy4…axpy1 are axpy4Go…axpy1Go with d's whole 8-float blocks in AVX2
// lanes and the rest in the Go loop.
func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy4AVX2(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
		d, b0, b1, b2, b3 = d[n:], b0[n:], b1[n:], b2[n:], b3[n:]
	}
	axpy4Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy3(d, b0, b1, b2 []float32, a0, a1, a2 float32) {
	b0, b1, b2 = b0[:len(d)], b1[:len(d)], b2[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy3AVX2(&d[0], &b0[0], &b1[0], &b2[0], n, a0, a1, a2)
		d, b0, b1, b2 = d[n:], b0[n:], b1[n:], b2[n:]
	}
	axpy3Go(d, b0, b1, b2, a0, a1, a2)
}

func axpy2(d, b0, b1 []float32, a0, a1 float32) {
	b0, b1 = b0[:len(d)], b1[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy2AVX2(&d[0], &b0[0], &b1[0], n, a0, a1)
		d, b0, b1 = d[n:], b0[n:], b1[n:]
	}
	axpy2Go(d, b0, b1, a0, a1)
}

func axpy1(d, b []float32, a float32) {
	b = b[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy1AVX2(&d[0], &b[0], n, a)
		d, b = d[n:], b[n:]
	}
	axpy1Go(d, b, a)
}

// The assembly kernels take n > 0, a multiple of 8, and rows of at least n
// floats; the wrappers above cut the rows to len(d) first, so a short row
// panics as it does in the Go loops.

//go:noescape
func axpy4AVX2(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy3AVX2(d, b0, b1, b2 *float32, n int, a0, a1, a2 float32)

//go:noescape
func axpy2AVX2(d, b0, b1 *float32, n int, a0, a1 float32)

//go:noescape
func axpy1AVX2(d, b *float32, n int, a float32)

// sumAVX2 returns the sum of x[0:n] in some order: NaN or ±Inf if one of
// them is.
//
//go:noescape
func sumAVX2(x *float32, n int) float32

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state the OS saves.
func xgetbv() uint32
