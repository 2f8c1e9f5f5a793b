//go:build !amd64

package tensor

// Without a SIMD port the portable loops are the only kernel path.

func kernelPaths() []string { return []string{"go"} }

func useKernelPath(string) string { return "go" }
