package tensor

import (
	"io/fs"
	"os"
	"path/filepath"
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

// TestLanesNeverFuse fails if any amd64 assembly file in the module —
// tensor's matmul lanes, fpcodec's group kernel, opt's update, and any
// added later — holds a fused multiply-add or multiply-subtract
// instruction (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…): every lane is
// bit-identical to the Go loops only because each product is rounded
// before it is added (DESIGN.md §8, "the AVX2 lanes"; §2, "the lanes").
func TestLanesNeverFuse(t *testing.T) {
	fused := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	const root = "../.." // the module root, from this package
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, and the build caches bench/perf/run.sh leaves
		case strings.HasSuffix(path, "_amd64.s"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
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
