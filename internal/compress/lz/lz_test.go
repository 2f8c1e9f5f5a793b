package lz

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(nil, src)
	dec, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(dec), len(src))
	}
	return enc
}

func TestEmpty(t *testing.T) {
	enc := roundtrip(t, nil)
	if len(enc) != 1 {
		t.Errorf("empty encoding = %d bytes, want 1 (header only)", len(enc))
	}
}

func TestSmallInputs(t *testing.T) {
	roundtrip(t, []byte{0})
	roundtrip(t, []byte{1, 2, 3})
	roundtrip(t, []byte("abcd"))
	roundtrip(t, bytes.Repeat([]byte{7}, 5))
}

func TestHighlyRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 4096)
	enc := roundtrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 50 {
		t.Errorf("repetitive ratio = %g, expected > 50", ratio)
	}
}

func TestRunLengthOverlappingCopy(t *testing.T) {
	// Offset-1 copies force overlapping-copy handling in the decoder.
	src := bytes.Repeat([]byte{0xAA}, 10000)
	roundtrip(t, src)
}

func TestRandomBytesIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 64*1024)
	rng.Read(src)
	enc := roundtrip(t, src)
	if len(enc) < len(src) {
		t.Errorf("random data compressed from %d to %d; expected expansion", len(src), len(enc))
	}
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Errorf("encoded %d bytes exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
}

// TestGradientStreamRatioPoor reproduces the paper's Sec. III claim: float32
// gradient streams achieve only a poor (~1.5x or less) lossless ratio.
func TestGradientStreamRatioPoor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	floats := make([]byte, 0, 256*1024)
	for i := 0; i < 64*1024; i++ {
		v := float32(rng.NormFloat64() * 0.01)
		bits := math.Float32bits(v)
		floats = append(floats, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	r := float64(len(floats)) / float64(len(Encode(nil, floats)))
	if r > 2.0 {
		t.Errorf("gradient stream ratio = %g; the Snappy family should stay below ~2", r)
	}
	if r <= 0 {
		t.Errorf("ratio = %g", r)
	}
}

func TestTextCompresses(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 500)
	enc := roundtrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 3 {
		t.Errorf("text ratio = %g, expected > 3", ratio)
	}
}

func TestAppendToExistingDst(t *testing.T) {
	prefix := []byte("prefix")
	src := []byte("hello hello hello hello hello")
	enc := Encode(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("Encode clobbered dst prefix")
	}
	dec, err := Decode(append([]byte(nil), prefix...), enc[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, append(append([]byte(nil), prefix...), src...)) {
		t.Fatal("Decode with prefixed dst mismatch")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                        // no header
		{10},                      // header says 10 bytes, no data
		{4, 0x02},                 // invalid tag
		{4, tagCopy, 0, 4},        // zero offset
		{4, tagCopy, 5, 4},        // offset before start
		{8, byte(3)<<2 | 0, 1, 2}, // literal longer than input
	}
	for i, c := range cases {
		if _, err := Decode(nil, c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(src []byte) bool {
		enc := Encode(nil, src)
		dec, err := Decode(nil, enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuredRoundtrip(t *testing.T) {
	// Structured input (repeated blocks with mutations) exercises the copy
	// path much harder than uniform random bytes.
	f := func(seed int64, blockLen uint8, nBlocks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, int(blockLen)+1)
		rng.Read(block)
		var src []byte
		for i := 0; i < int(nBlocks)+2; i++ {
			src = append(src, block...)
			if rng.Intn(3) == 0 && len(src) > 0 {
				src[rng.Intn(len(src))] ^= 0xFF
			}
		}
		enc := Encode(nil, src)
		dec, err := Decode(nil, enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeGradients(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 0, 256*1024)
	for i := 0; i < 64*1024; i++ {
		bits := math.Float32bits(float32(rng.NormFloat64() * 0.01))
		src = append(src, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Encode(dst[:0], src)
	}
}

func BenchmarkDecodeGradients(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 0, 256*1024)
	for i := 0; i < 64*1024; i++ {
		bits := math.Float32bits(float32(rng.NormFloat64() * 0.01))
		src = append(src, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	enc := Encode(nil, src)
	dst := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = Decode(dst[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// MaxEncodedLen returns an upper bound on the size of Encode's output for
// an input of length n.
func MaxEncodedLen(n int) int {
	// Worst case: all literals, one tag byte per 64 bytes, plus the header.
	return n + n/maxLiteral + 1 + binary.MaxVarintLen64
}
