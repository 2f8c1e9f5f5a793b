package tensor

// kernelPaths names the kernel paths this machine can run, the portable Go
// loops first: the differential tables run every entry point on each.
func kernelPaths() []string {
	if hasAVX2() {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// useKernelPath selects a path and returns the one it replaces.
func useKernelPath(path string) string {
	prev := "go"
	if useAVX2 {
		prev = "avx2"
	}
	useAVX2 = path == "avx2"
	return prev
}
