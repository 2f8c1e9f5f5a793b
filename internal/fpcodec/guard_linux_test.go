//go:build linux

package fpcodec

import (
	"bytes"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"inceptionn/internal/bitio"
)

// guardedPage maps two pages of anonymous memory, makes the second
// PROT_NONE and returns the first: a load or store past its end faults,
// which debug.SetPanicOnFault turns into a panic that fails the test.
func guardedPage(t *testing.T) []byte {
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[ps:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[:ps:ps]
}

// guardInputs are the streams the guard-page tests run: every class mixed,
// training's mix, all verbatim (the worst case, 34 bytes a group) and all
// zero (the best, 2), at lengths that end in partial groups.
func guardInputs() [][]float32 {
	verbatim, zero := make([]float32, 129), make([]float32, 203)
	for i := range verbatim {
		verbatim[i] = float32(i) + 1.5
	}
	return [][]float32{fastTestVector(301, 1), trainingMix(1001, 2), verbatim, zero}
}

// TestDecodeNeverReadsPastTheStream decodes every byte truncation of
// each stream from storage whose last byte abuts a PROT_NONE page, on
// each kernel path, and checks it against the bit-at-a-time reference: no
// lane load may reach past the stream's last byte.
func TestDecodeNeverReadsPastTheStream(t *testing.T) {
	page := guardedPage(t)
	bound := MustBound(10)
	onKernelPaths(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		for _, src := range guardInputs() {
			stream, bits := AppendGroups(nil, 0, src, bound)
			want, got := make([]float32, len(src)), make([]float32, len(src))
			for n := 0; n <= len(stream); n++ {
				limit := min(bits, 8*n)
				data := page[len(page)-n:]
				copy(data, stream)
				ref := bitio.NewReader(stream, limit)
				errRef := refDecompressStream(ref, want, bound)
				end, err := DecodeGroups(got, data, 0, limit, bound)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("%d values, %d of %d bytes: kernel %v, reference %v", len(src), n, len(stream), err, errRef)
				}
				if err == nil && (end != bitPos(ref) || !sameBits(got, want)) {
					t.Fatalf("%d values, %d of %d bytes: kernel decode differs from the reference's", len(src), n, len(stream))
				}
			}
		}
	})
}

// TestEncodeNeverWritesPastCap encodes each stream into storage whose
// capacity ends at a PROT_NONE page, at every capacity from the stream's
// length to a whole batch's worst case beyond it, on each kernel path: a
// capacity AppendGroups keeps (it grows the others off the page) must hold
// every store.
func TestEncodeNeverWritesPastCap(t *testing.T) {
	page := guardedPage(t)
	bound := MustBound(10)
	onKernelPaths(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		for _, src := range guardInputs() {
			for _, offset := range []int{0, 3} {
				ref := bitio.NewWriter(0)
				ref.WriteBits(0x5, offset)
				refCompressStream(ref, src, bound)
				kept := 0
				for c := ref.Len() / 8; c <= min(len(page), ref.Len()/8+batchGroups*maxGroupBytes+laneStore); c++ {
					buf := page[len(page)-c:][: (offset+7)/8 : c]
					if offset > 0 {
						buf[0] = 0x5
					}
					out, bits := AppendGroups(buf, offset, src, bound)
					if bits != ref.Len() || !bytes.Equal(out, ref.Bytes()) {
						t.Fatalf("%d values at bit %d, capacity %d: kernel stream differs from the reference's", len(src), offset, c)
					}
					if unsafe.SliceData(out) == unsafe.SliceData(buf) {
						kept++
					}
				}
				if kept == 0 {
					t.Fatalf("%d values at bit %d: no capacity was kept, so no store ran next to the guard page", len(src), offset)
				}
			}
		}
	})
}
