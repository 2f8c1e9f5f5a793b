//go:build !amd64

package par

// HasAVX2 reports false: AVX2 is an amd64 extension.
func HasAVX2() bool { return false }
