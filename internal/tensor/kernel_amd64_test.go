package tensor

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

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

// TestLanesNeverFuse fails if kernel_amd64.s holds a fused multiply-add or
// multiply-subtract instruction (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…):
// every lane is bit-identical to the Go loops only because each product
// is rounded before it is added (DESIGN.md §8, "the AVX2 lanes").
func TestLanesNeverFuse(t *testing.T) {
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	fused := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	for i, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		if fused.MatchString(code) {
			t.Errorf("kernel_amd64.s:%d: fused multiply-add: %s", i+1, strings.TrimSpace(line))
		}
	}
}
