//go:build linux

package opt

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps three pages of anonymous memory, each followed by a
// PROT_NONE page, and returns them as float32 slices: a load or store past
// the end of one faults, which debug.SetPanicOnFault turns into a panic
// that fails the test.
func guardedFloats(t *testing.T) (w, v, g []float32) {
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 6*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	page := func(i int) []float32 {
		if err := syscall.Mprotect(mem[(2*i+1)*ps:][:ps], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		return unsafe.Slice((*float32)(unsafe.Pointer(&mem[2*i*ps])), ps/4)
	}
	return page(0), page(1), page(2)
}

// TestStepNeverTouchesPastTheEnd runs StepScaled on each kernel path over
// a weight, velocity and gradient whose last element abuts a PROT_NONE
// page, at every length up to four blocks and a tail and at the end of a
// whole page, and checks the result against refStep: no lane may load or
// store past a slice's end.
func TestStepNeverTouchesPastTheEnd(t *testing.T) {
	wp, vp, gp := guardedFloats(t)
	var lengths []int
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, len(wp)-9, len(wp)-1, len(wp))
	onKernelPaths(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		rng := rand.New(rand.NewSource(7))
		for _, n := range lengths {
			w, v, g := wp[len(wp)-n:], vp[len(vp)-n:], gp[len(gp)-n:]
			copy(w, mixed(rng, n, 1))
			copy(v, mixed(rng, n, 0.01))
			copy(g, mixed(rng, n, 0.1))
			s := NewSGD(0.05, 0.9, 5e-4)
			requireStepMatches(t, fmt.Sprintf("n=%d", n), []span{{n, true}}, w, v, g, 0.25, s)
		}
	})
}
