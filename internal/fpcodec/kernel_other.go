//go:build !amd64

package fpcodec

// Without a SIMD port the Go loops in kernel.go are the whole kernel.

// SetLanes reports false and does nothing: there are no lanes to turn on.
func SetLanes(bool) bool { return false }

func encodeLanes(buf []byte, pos int, src []float32, e int) (int, int) { return 0, pos }

func decodeLanes(dst []float32, data []byte, p, lim int, phase uint, keep uint32, e int) (int, int) {
	return 0, p
}
