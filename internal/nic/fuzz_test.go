package nic

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/par"
)

// kernelPaths names the codec kernel's paths this machine can run, the
// Go loops first; fpcodec.SetLanes(path == "avx2") selects one.
func kernelPaths() []string {
	if par.HasAVX2() {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// FuzzBurstDecompressor is the differential fuzzer of the Fig. 10 model:
// on arbitrary streams, truncated at every point (every 64th once long),
// the burst-buffer decoder and fpcodec.DecodeGroups on each kernel path
// agree on error or no error, fail with an ErrShortRead at the same bit,
// and produce the same bit patterns for every group before it.
func FuzzBurstDecompressor(f *testing.F) {
	bound := fpcodec.MustBound(10)
	for _, n := range []int{1, 7, 9, 64, 65} {
		data, bits := fpcodec.AppendGroups(nil, 0, gradientVector(n, int64(n)), bound)
		f.Add(data, bits, n)
	}
	f.Add([]byte{0xFF, 0x00, 0xAB}, 24, 8)
	f.Add([]byte{0x00, 0xC0, 0x12, 0x34}, 32, 1) // a partial group's hostile trailing tags
	f.Add(bytes.Repeat([]byte{0xFF}, 80), 640, 16)
	f.Add(bytes.Repeat([]byte{0x55, 0xAA, 0x00, 0xFF, 0x1B}, 40), 1600, 65)
	f.Fuzz(func(t *testing.T, data []byte, bits, count int) {
		if bits < 0 || bits > 8*len(data) || count < 0 || count > 4096 {
			t.Skip()
		}
		bound := fpcodec.MustBound(len(data)%15 + 1)
		want := make([]float32, count)
		for _, path := range kernelPaths() {
			prev := fpcodec.SetLanes(path == "avx2")
			for limit := bits; limit >= 0; limit -= max(1, bits/64) {
				end, err := fpcodec.DecodeGroups(want, data, 0, limit, bound)
				bd := NewBurstDecompressor(bound, data, limit)
				got, errB := bd.DecompressAll(count)
				if (err == nil) != (errB == nil) {
					t.Fatalf("%s: %d bits, count %d: DecodeGroups %v, burst model %v", path, limit, count, err, errB)
				}
				if err != nil && !errors.Is(errB, bitio.ErrShortRead) {
					t.Fatalf("%s: %d bits, count %d: burst model error %v is not an ErrShortRead", path, limit, count, errB)
				}
				if at := bd.inputPos - bd.fill; end != at {
					t.Fatalf("%s: %d bits, count %d: DecodeGroups stopped at bit %d, burst model at %d", path, limit, count, end, at)
				}
				for i, v := range got {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("%s: %d bits, count %d: value %d is %#08x, DecodeGroups %#08x",
							path, limit, count, i, math.Float32bits(v), math.Float32bits(want[i]))
					}
				}
			}
			fpcodec.SetLanes(prev)
		}
	})
}
