package fpcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"inceptionn/internal/bitio"
)

// FuzzScalarRoundtrip fuzzes the scalar codec over the full float32 bit
// space and every bound: the error contract must hold for every input.
func FuzzScalarRoundtrip(f *testing.F) {
	f.Add(uint32(0), 10)
	f.Add(math.Float32bits(0.5), 10)
	f.Add(math.Float32bits(-1.5), 6)
	f.Add(math.Float32bits(1e-30), 15)
	f.Add(math.Float32bits(float32(math.NaN())), 8)
	f.Fuzz(func(t *testing.T, bits uint32, eRaw int) {
		e := (eRaw%15+15)%15 + 1
		bound := MustBound(e)
		v := math.Float32frombits(bits)
		got := Roundtrip(v, bound)
		switch {
		case math.IsNaN(float64(v)):
			if !math.IsNaN(float64(got)) {
				t.Fatalf("NaN not preserved: %g", got)
			}
		case math.Abs(float64(v)) >= 1:
			if got != v {
				t.Fatalf("no-compress class not exact: %g -> %g", v, got)
			}
		default:
			if math.Abs(float64(got)-float64(v)) > bound.MaxError() {
				t.Fatalf("bound %v violated: %g -> %g", bound, v, got)
			}
			if twice := Roundtrip(got, bound); twice != got {
				t.Fatalf("not idempotent: %g -> %g", got, twice)
			}
		}
	})
}

// FuzzDecompressStream fuzzes the kernel's decoder, on each kernel path,
// with arbitrary byte streams against the bit-at-a-time decoder built from
// scalar Decompress: from the first bit and from one that need not be a
// byte's first, and truncated at every point (every 64th of the stream
// once it is long), the two must agree on error or no error and on every
// decoded bit pattern — and the kernel must never panic. Arbitrary bytes
// put arbitrary tags in the lanes a final partial group lacks, which
// neither decoder may honour.
func FuzzDecompressStream(f *testing.F) {
	bound := MustBound(10)
	w := bitio.NewWriter(64)
	CompressStream(w, []float32{0.5, -0.001, 2.5, 0}, bound)
	f.Add(w.Bytes(), w.Len(), 4)
	f.Add([]byte{0xFF, 0x00, 0xAB}, 24, 8)
	f.Add([]byte{}, 0, 0)
	f.Add([]byte{}, 0, 1)
	f.Add(bytes.Repeat([]byte{0x00}, 64), 512, 255)
	f.Add(bytes.Repeat([]byte{0xFF}, 64), 512, 9)
	f.Add(bytes.Repeat([]byte{0x55, 0xAA, 0x00, 0xFF, 0x1B}, 40), 1600, 65)
	for _, n := range []int{7, 9, 63, 65} {
		w.Reset()
		CompressStream(w, fastTestVector(n, int64(n)), bound)
		f.Add(append([]byte(nil), w.Bytes()...), w.Len(), n)
	}
	f.Fuzz(func(t *testing.T, data []byte, bits, count int) {
		if bits < 0 || bits > 8*len(data) || count < 0 || count > 4096 {
			t.Skip()
		}
		bound := MustBound(len(data)%15 + 1)
		want, got := make([]float32, count), make([]float32, count)
		for _, path := range kernelPaths() {
			prev := useKernelPath(path)
			for _, start := range []int{0, min(len(data)%8, bits)} {
				for limit := bits; limit >= start; limit -= max(1, bits/64) {
					ref := bitio.NewReader(data, limit)
					if err := ref.Skip(start); err != nil {
						t.Fatal(err)
					}
					errRef := refDecompressStream(ref, want, bound)
					r := bitio.NewReader(data, limit)
					if err := r.Skip(start); err != nil {
						t.Fatal(err)
					}
					err := DecompressStream(r, got, bound)
					if (errRef == nil) != (err == nil) {
						t.Fatalf("%s: bits [%d,%d) count %d: reference %v, kernel %v", path, start, limit, count, errRef, err)
					}
					if err != nil {
						if !errors.Is(err, bitio.ErrShortRead) {
							t.Fatalf("%s: bits [%d,%d) count %d: kernel error %v is not an ErrShortRead", path, start, limit, count, err)
						}
						continue
					}
					if pos, refPos := bitPos(r), bitPos(ref); pos != refPos {
						t.Fatalf("%s: bits [%d,%d) count %d: kernel stopped at bit %d, reference at %d", path, start, limit, count, pos, refPos)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s: bits [%d,%d) count %d: kernel decode differs from the reference's", path, start, limit, count)
					}
				}
			}
			useKernelPath(prev)
		}
	})
}

// FuzzCompressStream fuzzes the kernel's encoder, on each kernel path,
// with arbitrary float bit patterns appended at a starting bit offset of
// 0–7: bytes and bit length must equal the reference built from scalar
// Compress and WriteBits, and the stream must decode to what scalar
// Roundtrip gives.
func FuzzCompressStream(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(10))
	f.Add([]byte{0x00, 0x00, 0x80, 0x3E}, uint8(3), uint8(10)) // one value: 0.25
	f.Add(bytes.Repeat([]byte{0x00}, 4*64), uint8(5), uint8(6))
	f.Add(bytes.Repeat([]byte{0xFF}, 4*64), uint8(1), uint8(8))
	for _, n := range []int{7, 9, 63, 65} {
		raw := make([]byte, 4*n)
		for i, v := range fastTestVector(n, int64(n)) {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		f.Add(raw, uint8(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, raw []byte, offset, eRaw uint8) {
		bound := MustBound(int(eRaw)%15 + 1)
		start := int(offset % 8)
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		ref := bitio.NewWriter(0)
		ref.WriteBits(0x55, start)
		refCompressStream(ref, src, bound)
		got := make([]float32, len(src))
		for _, path := range kernelPaths() {
			prev := useKernelPath(path)
			w := bitio.NewWriter(0)
			w.WriteBits(0x55, start)
			CompressStream(w, src, bound)
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("%s: %d values at bit %d under %v: kernel stream differs from the reference's (%d vs %d bits)",
					path, len(src), start, bound, w.Len(), ref.Len())
			}
			r := bitio.NewReader(w.Bytes(), w.Len())
			if err := r.Skip(start); err != nil {
				t.Fatal(err)
			}
			if err := DecompressStream(r, got, bound); err != nil {
				t.Fatal(err)
			}
			for i, v := range src {
				if want := Roundtrip(v, bound); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("%s: value %d (%#08x) under %v: kernel %#08x, scalar roundtrip %#08x",
						path, i, math.Float32bits(v), bound, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
			useKernelPath(prev)
		}
	})
}

// bitPos is the bit position of r's next read.
func bitPos(r *bitio.Reader) int {
	_, pos, _ := r.Lend()
	return pos
}

// unread is the number of bits r has not read.
func unread(r *bitio.Reader) int {
	_, pos, nbit := r.Lend()
	return nbit - pos
}
