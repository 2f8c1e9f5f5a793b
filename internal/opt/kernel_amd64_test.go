package opt

import "inceptionn/internal/par"

// kernelPaths names the update paths this machine can run, the portable Go
// loop first: the differential tests run StepScaled on each.
func kernelPaths() []string {
	if par.HasAVX2() {
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
