//go:build !amd64

package opt

// Without a SIMD port the Go loop is the only update path.

func kernelPaths() []string { return []string{"go"} }

func useKernelPath(string) string { return "go" }
