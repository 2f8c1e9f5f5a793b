package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fpcodec"
)

// container builds an INCF file: magic, bound exponent, count, bit length,
// stream.
func container(t *testing.T, exp, count, bits uint32, stream []byte) string {
	t.Helper()
	raw := make([]byte, 16, 16+len(stream))
	binary.LittleEndian.PutUint32(raw[0:], containerMagic)
	binary.LittleEndian.PutUint32(raw[4:], exp)
	binary.LittleEndian.PutUint32(raw[8:], count)
	binary.LittleEndian.PutUint32(raw[12:], bits)
	path := filepath.Join(t.TempDir(), "in.incf")
	if err := os.WriteFile(path, append(raw, stream...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDecompress: a container round-trips to the codec's decode of its
// stream, and a count the stream cannot hold — a raw u32 in a 16-byte file —
// is rejected before it becomes an allocation.
func TestRunDecompress(t *testing.T) {
	bound := fpcodec.MustBound(10)
	vals := []float32{0.5, -0.001, 2.5, 0, 0.03, -0.75, 1e-9, 0.25, -0.1}
	stream, bits := fpcodec.AppendGroups(nil, 0, vals, bound)
	out := filepath.Join(t.TempDir(), "out.f32")
	if err := runDecompress(container(t, 10, uint32(len(vals)), uint32(bits), stream), out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil || len(raw) != 4*len(vals) {
		t.Fatalf("output: %d bytes, %v", len(raw), err)
	}
	for i, v := range vals {
		if got, want := binary.LittleEndian.Uint32(raw[4*i:]), math.Float32bits(fpcodec.Roundtrip(v, bound)); got != want {
			t.Errorf("value %d: %#08x, want %#08x", i, got, want)
		}
	}

	for _, count := range []uint32{1 << 26, math.MaxUint32} {
		path := container(t, 10, count, 0, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := runDecompress(path, "")
		runtime.ReadMemStats(&after)
		if !errors.Is(err, bitio.ErrShortRead) {
			t.Fatalf("count=%d in an empty stream: %v, want ErrShortRead", count, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("count=%d in an empty stream: allocated %d bytes before rejecting it", count, grew)
		}
	}
}

// TestContainerGoldenBytes pins the INCF container. The commit before
// internal/frame existed wrote testdata/golden_gen64_seed1.incf with
// `inccompress -gen 64 -seed 1 -out` and golden_gen64_seed1.f32 with
// `-decompress` of that; neither may be regenerated from current code.
func TestContainerGoldenBytes(t *testing.T) {
	const path = "testdata/golden_gen64_seed1.incf"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bound := fpcodec.MustBound(10)
	vals := generate(64, 1)
	w := bitio.NewWriter(len(vals))
	fpcodec.CompressStream(w, vals, bound)
	if got := encodeContainer(bound, len(vals), w.Bytes(), w.Len()); !bytes.Equal(got, golden) {
		t.Fatalf("container: % x\nwant       % x", got, golden)
	}

	out := filepath.Join(t.TempDir(), "out.f32")
	if err := runDecompress(path, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_gen64_seed1.f32")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored floats: % x\nwant            % x", got, want)
	}
}
