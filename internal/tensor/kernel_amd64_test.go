package tensor

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"inceptionn/internal/par"
)

// kernelPaths names the kernel paths this machine can run, the portable Go
// loops first: the differential tables run every entry point on each.
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

// TestLanesNeverFuse fails if an AVX2 kernel file — this package's, or
// fpcodec's group kernel — holds a fused multiply-add or multiply-subtract
// instruction (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…): every lane is
// bit-identical to the Go loops only because each product is rounded
// before it is added (DESIGN.md §8, "the AVX2 lanes"; §2, "the lanes").
func TestLanesNeverFuse(t *testing.T) {
	fused := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	for _, file := range []string{"kernel_amd64.s", "../fpcodec/kernel_amd64.s"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if fused.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add: %s", file, i+1, strings.TrimSpace(line))
			}
		}
	}
}
