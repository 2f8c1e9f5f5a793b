package truncate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inceptionn/internal/bitio"
)

func TestNewValidation(t *testing.T) {
	for _, d := range []int{0, 16, 22, 24, 31} {
		if _, err := New(d); err != nil {
			t.Errorf("New(%d): %v", d, err)
		}
	}
	for _, d := range []int{-1, 32, 100} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%d): expected error", d)
		}
	}
}

func TestRatio(t *testing.T) {
	cases := map[int]float64{16: 2, 22: 3.2, 24: 4, 0: 1}
	for drop, want := range cases {
		if got := MustNew(drop).Ratio(); math.Abs(got-want) > 1e-9 {
			t.Errorf("drop=%d: Ratio = %g, want %g", drop, got, want)
		}
	}
}

func TestApplyZeroDropIsIdentity(t *testing.T) {
	c := MustNew(0)
	for _, v := range []float32{0, 1, -1, 0.333, 1e-20, -7e12} {
		if got := c.Apply(v); got != v {
			t.Errorf("Apply(%g) = %g with drop=0", v, got)
		}
	}
}

func TestApply16MantissaOnly(t *testing.T) {
	// 16b-T keeps sign, exponent and 7 mantissa bits: relative error < 2^-7.
	c := MustNew(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := float32(rng.NormFloat64())
		got := c.Apply(v)
		if v == 0 {
			continue
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if rel >= math.Ldexp(1, -7) {
			t.Fatalf("v=%g got=%g rel=%g", v, got, rel)
		}
	}
}

func TestApply24PerturbsExponent(t *testing.T) {
	// 24b-T zeroes the whole mantissa plus one exponent LSB: values whose
	// exponent LSB is set collapse to half (or less) of their magnitude —
	// the uncontrolled error the paper blames for accuracy collapse.
	c := MustNew(24)
	got := c.Apply(0.5) // 0.5 has biased exponent 126 (LSB=0): mantissa only
	if got != 0.5 {
		t.Errorf("Apply(0.5) = %g, want 0.5", got)
	}
	got = c.Apply(0.25) // biased exponent 125 (LSB=1): exponent is damaged
	if got == 0.25 {
		t.Errorf("Apply(0.25) = %g, expected exponent perturbation", got)
	}
	if got > 0.25 {
		t.Errorf("Apply(0.25) = %g, truncation must not increase magnitude", got)
	}
}

func TestApplyAllMatchesApply(t *testing.T) {
	c := MustNew(22)
	rng := rand.New(rand.NewSource(2))
	vs := make([]float32, 1000)
	want := make([]float32, 1000)
	for i := range vs {
		vs[i] = float32(rng.NormFloat64() * 0.1)
		want[i] = c.Apply(vs[i])
	}
	c.ApplyAll(vs)
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("index %d: ApplyAll %g != Apply %g", i, vs[i], want[i])
		}
	}
}

func TestPackRoundtrip(t *testing.T) {
	for _, drop := range []int{16, 22, 24} {
		c := MustNew(drop)
		rng := rand.New(rand.NewSource(int64(drop)))
		src := make([]float32, 257)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		w := bitio.NewWriter(4 * len(src))
		c.Compress(w, src)
		if int64(w.Len()) != c.CompressedBits(len(src)) {
			t.Errorf("drop=%d: %d bits, want %d", drop, w.Len(), c.CompressedBits(len(src)))
		}
		dst := make([]float32, len(src))
		if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err != nil {
			t.Fatalf("drop=%d: %v", drop, err)
		}
		for i := range src {
			if dst[i] != c.Apply(src[i]) {
				t.Fatalf("drop=%d index=%d: decompressed %g, Apply gives %g",
					drop, i, dst[i], c.Apply(src[i]))
			}
		}
	}
}

func TestQuickPackedEqualsApply(t *testing.T) {
	f := func(bits uint32, dropSeed uint8) bool {
		drop := int(dropSeed) % 32
		c := MustNew(drop)
		v := math.Float32frombits(bits)
		if math.IsNaN(float64(v)) {
			return true // NaN payloads are not value-comparable
		}
		w := bitio.NewWriter(4)
		c.Compress(w, []float32{v})
		dst := make([]float32, 1)
		if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err != nil {
			return false
		}
		return dst[0] == c.Apply(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressShortStream(t *testing.T) {
	c := MustNew(16)
	w := bitio.NewWriter(8)
	c.Compress(w, []float32{1, 2})
	dst := make([]float32, 3)
	if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err == nil {
		t.Fatal("expected error on short stream")
	}
}

func BenchmarkApplyAll(b *testing.B) {
	c := MustNew(16)
	vs := make([]float32, 64*1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(4 * len(vs)))
	for i := 0; i < b.N; i++ {
		c.ApplyAll(vs)
	}
}

func BenchmarkPack64K(b *testing.B) {
	c := MustNew(16)
	vs := make([]float32, 64*1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = float32(rng.NormFloat64())
	}
	w := bitio.NewWriter(4 * len(vs))
	b.SetBytes(int64(4 * len(vs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		c.Compress(w, vs)
	}
}

// Apply returns v with the configured LSBs zeroed: the value a receiver
// reconstructs, one element of ApplyAll.
func (c Codec) Apply(v float32) float32 {
	return bitsToFloat(floatToBits(v) &^ (1<<uint(c.drop) - 1))
}

// CompressedBits returns the exact packed size of n values in bits.
func (c Codec) CompressedBits(n int) int64 { return int64(n) * int64(c.KeptBits()) }
