package szlike

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inceptionn/internal/bitio"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1e-3, 8); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bound   float64
		binBits int
	}{{0, 8}, {-1, 8}, {math.Inf(1), 8}, {math.NaN(), 8}, {1e-3, 1}, {1e-3, 17}} {
		if _, err := New(c.bound, c.binBits); err == nil {
			t.Errorf("New(%g, %d): expected error", c.bound, c.binBits)
		}
	}
}

func roundtrip(t *testing.T, c Codec, src []float32) []float32 {
	t.Helper()
	w := bitio.NewWriter(4 * len(src))
	c.Compress(w, src)
	dst := make([]float32, len(src))
	if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	return dst
}

func TestErrorBoundHeld(t *testing.T) {
	c := MustNew(1e-3, 8)
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 10000)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := roundtrip(t, c, src)
	for i := range src {
		if err := math.Abs(float64(dst[i]) - float64(src[i])); err > c.Bound()+1e-12 {
			t.Fatalf("index %d: |%g - %g| = %g > bound %g", i, dst[i], src[i], err, c.Bound())
		}
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	// SZ's strength: smooth series are almost entirely bin-coded.
	c := MustNew(1e-4, 8)
	src := make([]float32, 8192)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) / 100))
	}
	if r := c.Ratio(src); r < 3 {
		t.Errorf("smooth ratio = %g, expected > 3 (9 bits/value)", r)
	}
}

func TestNoisyGradientsCompressPoorly(t *testing.T) {
	// Gradients are noise to a predictive codec at tight bounds: most values
	// are either raw or cost 9 bits — far from the INCEPTIONN codec's 16x.
	c := MustNew(math.Ldexp(1, -10), 8)
	rng := rand.New(rand.NewSource(2))
	src := make([]float32, 8192)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 0.1)
	}
	if r := c.Ratio(src); r > 4 {
		t.Errorf("noisy-gradient ratio = %g, expected modest (< 4)", r)
	}
}

func TestSpecialValuesStoredRaw(t *testing.T) {
	c := MustNew(1e-3, 8)
	src := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30}
	dst := roundtrip(t, c, src)
	if !math.IsNaN(float64(dst[0])) {
		t.Errorf("NaN not preserved: %g", dst[0])
	}
	if !math.IsInf(float64(dst[1]), 1) || !math.IsInf(float64(dst[2]), -1) {
		t.Errorf("Inf not preserved: %g %g", dst[1], dst[2])
	}
	if dst[3] != 1e30 || dst[4] != -1e30 {
		t.Errorf("huge values not exact: %g %g", dst[3], dst[4])
	}
}

func TestEmptyInput(t *testing.T) {
	c := MustNew(1e-3, 8)
	w := bitio.NewWriter(0)
	c.Compress(w, nil)
	if w.Len() != 0 {
		t.Errorf("empty input wrote %d bits", w.Len())
	}
	if err := c.Decompress(bitio.NewReader(nil, 0), nil); err != nil {
		t.Errorf("empty decompress: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	c := MustNew(1e-3, 8)
	w := bitio.NewWriter(64)
	c.Compress(w, []float32{0.1, 0.2, 0.3, 0.4})
	dst := make([]float32, 4)
	r := bitio.NewReader(w.Bytes(), w.Len()/3)
	if err := c.Decompress(r, dst); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

func TestQuickErrorBound(t *testing.T) {
	f := func(seed int64, boundExp uint8, n uint8) bool {
		e := int(boundExp%12) + 3
		bound := math.Ldexp(1, -e)
		c := MustNew(bound, 8)
		rng := rand.New(rand.NewSource(seed))
		src := make([]float32, int(n)+1)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		w := bitio.NewWriter(4 * len(src))
		c.Compress(w, src)
		dst := make([]float32, len(src))
		if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err != nil {
			return false
		}
		for i := range src {
			if math.Abs(float64(dst[i])-float64(src[i])) > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressGradients(b *testing.B) {
	c := MustNew(math.Ldexp(1, -10), 8)
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 64*1024)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 0.01)
	}
	w := bitio.NewWriter(4 * len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		c.Compress(w, src)
	}
}

func BenchmarkDecompressGradients(b *testing.B) {
	c := MustNew(math.Ldexp(1, -10), 8)
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 64*1024)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 0.01)
	}
	w := bitio.NewWriter(4 * len(src))
	c.Compress(w, src)
	dst := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decompress(bitio.NewReader(w.Bytes(), w.Len()), dst); err != nil {
			b.Fatal(err)
		}
	}
}

// Bound returns the absolute error bound.
func (c Codec) Bound() float64 { return c.bound }
