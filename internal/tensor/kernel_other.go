//go:build !amd64

package tensor

// Without a SIMD port the portable bodies in tensor.go are the kernels.

func allFinite(x []float32) bool { return allFiniteGo(x) }

func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	axpy4Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy3(d, b0, b1, b2 []float32, a0, a1, a2 float32) { axpy3Go(d, b0, b1, b2, a0, a1, a2) }

func axpy2(d, b0, b1 []float32, a0, a1 float32) { axpy2Go(d, b0, b1, a0, a1) }

func axpy1(d, b []float32, a float32) { axpy1Go(d, b, a) }

func add(d, s []float32) { addGo(d, s) }

func matMulTransBLanes(dd, ad, bd []float32, m, k, n int) bool { return false }
