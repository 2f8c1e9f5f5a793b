package fpcodec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inceptionn/internal/bitio"
)

func TestNewBoundValidation(t *testing.T) {
	for _, e := range []int{1, 6, 8, 10, 15} {
		if _, err := NewBound(e); err != nil {
			t.Errorf("NewBound(%d): unexpected error %v", e, err)
		}
	}
	for _, e := range []int{0, -3, 16, 100} {
		if _, err := NewBound(e); err == nil {
			t.Errorf("NewBound(%d): expected error", e)
		}
	}
}

func TestTagBits(t *testing.T) {
	cases := map[Tag]int{TagZero: 0, Tag8: 8, Tag16: 16, TagNone: 32}
	for tag, want := range cases {
		if got := tag.Bits(); got != want {
			t.Errorf("%s.Bits() = %d, want %d", tag, got, want)
		}
	}
}

func TestClassBoundaries(t *testing.T) {
	b := MustBound(10) // s8 = 3
	cases := []struct {
		v    float32
		want Tag
	}{
		{0, TagZero},
		{float32(math.Copysign(0, -1)), TagZero},
		{5e-39, TagZero},     // denormal
		{0.0009, TagZero},    // < 2^-10 ≈ 0.000977
		{0.0009765625, Tag8}, // exactly 2^-10
		{0.001, Tag8},        // just above the bound
		{0.1, Tag8},          // < 2^-3 = 0.125
		{0.124, Tag8},        //
		{0.125, Tag16},       // exactly 2^-3 = 2^-s8
		{0.5, Tag16},         //
		{0.99, Tag16},        //
		{1.0, TagNone},       //
		{-1.5, TagNone},      //
		{123456, TagNone},    //
		{float32(math.Inf(1)), TagNone},
		{float32(math.NaN()), TagNone},
	}
	for _, c := range cases {
		if got := TagOf(c.v, b); got != c.want {
			t.Errorf("TagOf(%g, %v) = %s, want %s", c.v, b, got, c.want)
		}
	}
}

// TestE6Has No16BitClass encodes the structural fact from Table III that at
// error bound 2^-6 the 18-bit (Tag16) class is empty.
func TestE6HasNo16BitClass(t *testing.T) {
	b := MustBound(6)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := float32(rng.Float64()*2 - 1) // (-1, 1)
		if tag := TagOf(v, b); tag == Tag16 {
			t.Fatalf("value %g classified Tag16 under %v", v, b)
		}
	}
}

// TestE8SixteenBitClassIsTopHalf: at 2^-8 the Tag16 class is exactly [0.5, 1).
func TestE8SixteenBitClassIsTopHalf(t *testing.T) {
	b := MustBound(8)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		v := float32(rng.Float64()*2 - 1)
		tag := TagOf(v, b)
		inTop := math.Abs(float64(v)) >= 0.5 && math.Abs(float64(v)) < 1.0
		if inTop != (tag == Tag16) {
			t.Fatalf("|v|=%g: tag=%s, inTop=%v", math.Abs(float64(v)), tag, inTop)
		}
	}
}

func TestNoCompressRoundtripExact(t *testing.T) {
	b := MustBound(10)
	for _, v := range []float32{1, -1, 1.5, -3.25, 1e10, -7e20} {
		if got := Roundtrip(v, b); got != v {
			t.Errorf("Roundtrip(%g) = %g, want exact", v, got)
		}
	}
	if got := Roundtrip(float32(math.Inf(-1)), b); !math.IsInf(float64(got), -1) {
		t.Errorf("Roundtrip(-Inf) = %g", got)
	}
	if got := Roundtrip(float32(math.NaN()), b); !math.IsNaN(float64(got)) {
		t.Errorf("Roundtrip(NaN) = %g", got)
	}
}

// TestErrorBoundProperty: for any |v| < 1, |roundtrip(v) - v| <= 2^-E,
// for every supported bound. This is the codec's central invariant.
func TestErrorBoundProperty(t *testing.T) {
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		f := func(u uint32) bool {
			// Map u to a float32 in (-1, 1) covering all exponents and
			// mantissas: keep sign and mantissa, force exponent < 127.
			exp := u >> 23 & 0xFF
			exp = exp % 127 // 0..126
			bits := u&0x807FFFFF | exp<<23
			v := math.Float32frombits(bits)
			got := Roundtrip(v, b)
			return math.Abs(float64(got)-float64(v)) <= b.MaxError()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("bound %v: %v", b, err)
		}
	}
}

// TestErrorBoundSweep proves the bound where the sampled properties around
// it only probe it: every bound × both signs × all 256 exponents × about a
// thousand mantissas (the edge patterns plus a stride). Exponents ≥ 127 —
// NaN and ±Inf included — round-trip bit-exactly; everything below lands
// within 2^-E, never flips sign, and is a fixed point of a second round
// trip. The sweep is of the scalar pair; TestKernelTableMatchesScalar ties
// the kernel every data path runs to it.
func TestErrorBoundSweep(t *testing.T) {
	mantissas := []uint32{0, 1, 2, 0x3FFFFF, 0x400000, 0x400001, 0x7FFFFE, 0x7FFFFF}
	for m := uint32(0); m < 1<<23; m += 8387 {
		mantissas = append(mantissas, m)
	}
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		worst := 0.0
		for signExp := uint32(0); signExp < 512; signExp++ {
			for _, m := range mantissas {
				bits := signExp<<23 | m
				x := math.Float32frombits(bits)
				got := Roundtrip(x, b)
				if signExp&0xFF >= 127 {
					if math.Float32bits(got) != bits {
						t.Fatalf("E=%d: %#08x came back as %#08x, want it verbatim", e, bits, math.Float32bits(got))
					}
					continue
				}
				diff := math.Abs(float64(x) - float64(got))
				if diff > b.MaxError() {
					t.Fatalf("E=%d: |%g - %g| = %g exceeds %g", e, x, got, diff, b.MaxError())
				}
				if got != 0 && math.Signbit(float64(got)) != math.Signbit(float64(x)) {
					t.Fatalf("E=%d: %g came back as %g: sign flipped", e, x, got)
				}
				if again := Roundtrip(got, b); math.Float32bits(again) != math.Float32bits(got) {
					t.Fatalf("E=%d: %g → %g → %g: not idempotent", e, x, got, again)
				}
				worst = math.Max(worst, diff)
			}
		}
		// The sweep reaches the edge it guards: the worst case sits just
		// under the bound, so a window one bit narrower would fail above.
		if worst < 0.99*b.MaxError() {
			t.Errorf("E=%d: worst error %g is nowhere near the bound %g — the sweep misses the edge", e, worst, b.MaxError())
		}
	}
}

// TestReconstructionNeverOvershoots: truncation means |decoded| <= |v| and
// the sign is preserved for nonzero decodes.
func TestReconstructionNeverOvershoots(t *testing.T) {
	b := MustBound(10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		v := float32(rng.Float64()*2 - 1)
		got := Roundtrip(v, b)
		if math.Abs(float64(got)) > math.Abs(float64(v)) {
			t.Fatalf("overshoot: v=%g got=%g", v, got)
		}
		if got != 0 && math.Signbit(float64(got)) != math.Signbit(float64(v)) {
			t.Fatalf("sign flip: v=%g got=%g", v, got)
		}
	}
}

func TestRoundtripIdempotent(t *testing.T) {
	// Decoded values must re-encode to themselves (fixed point of the codec).
	b := MustBound(8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		v := float32(rng.NormFloat64() * 0.1)
		once := Roundtrip(v, b)
		twice := Roundtrip(once, b)
		if once != twice {
			t.Fatalf("not idempotent: v=%g once=%g twice=%g", v, once, twice)
		}
	}
}

// roundtripByCodec is Roundtrip's reference: the codec's own two halves.
func roundtripByCodec(f float32, b Bound) float32 {
	v, tag := Compress(f, b)
	return Decompress(v, tag, b)
}

// TestRoundtripMatchesCodec: the bit-mask Roundtrip equals Compress then
// Decompress bit for bit, for every bound, both signs and every exponent,
// each with the edge mantissas (0, 1, the top bit, all ones, one below and
// at every Tag8/Tag16 window edge) and random ones.
func TestRoundtripMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	mantissas := []uint32{0, 1, 2, 0x7F, 0x80, 0xFF, 0x100, 0x400000, 0x7FFFFE, 0x7FFFFF}
	for cut := uint(1); cut < 23; cut++ {
		mantissas = append(mantissas, 1<<cut-1, 1<<cut, 1<<cut+1)
	}
	for i := 0; i < 64; i++ {
		mantissas = append(mantissas, rng.Uint32()&0x7FFFFF)
	}
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		for sign := uint32(0); sign < 2; sign++ {
			for exp := uint32(0); exp < 256; exp++ {
				for _, m := range mantissas {
					f := math.Float32frombits(sign<<31 | exp<<23 | m)
					got, want := Roundtrip(f, b), roundtripByCodec(f, b)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("E=%d f=%g (%#08x): Roundtrip %#08x, codec %#08x",
							e, f, math.Float32bits(f), math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	}
}

func TestGroupRoundtrip(t *testing.T) {
	b := MustBound(10)
	vals := []float32{0, 0.5, -0.03, 1.25, -0.0001, 0.9999, 2e-4, -0.125}
	w := bitio.NewWriter(64)
	CompressGroup(w, vals, b)
	r := bitio.NewReader(w.Bytes(), w.Len())
	got := make([]float32, len(vals))
	if err := DecompressGroup(r, got, b); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(float64(got[i])-float64(vals[i])) > b.MaxError() && TagOf(vals[i], b) != TagNone {
			t.Errorf("lane %d: got %g want ~%g", i, got[i], vals[i])
		}
	}
	if got[3] != 1.25 {
		t.Errorf("no-compress lane: got %g want 1.25", got[3])
	}
	if n := unread(r); n != 0 {
		t.Errorf("%d unread bits", n)
	}
}

func TestPartialGroup(t *testing.T) {
	b := MustBound(10)
	vals := []float32{0.25, -0.6, 0.001}
	w := bitio.NewWriter(16)
	CompressGroup(w, vals, b)
	r := bitio.NewReader(w.Bytes(), w.Len())
	got := make([]float32, 3)
	if err := DecompressGroup(r, got, b); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(float64(got[i])-float64(vals[i])) > b.MaxError() {
			t.Errorf("lane %d: got %g want ~%g", i, got[i], vals[i])
		}
	}
}

func TestGroupSizeBounds(t *testing.T) {
	b := MustBound(10)
	w := bitio.NewWriter(8)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { CompressGroup(w, nil, b) })
	mustPanic("oversize", func() { CompressGroup(w, make([]float32, 9), b) })
}

func TestStreamRoundtripProperty(t *testing.T) {
	b := MustBound(10)
	f := func(seed int64, n uint16) bool {
		count := int(n%1000) + 1
		rng := rand.New(rand.NewSource(seed))
		src := make([]float32, count)
		for i := range src {
			switch rng.Intn(4) {
			case 0:
				src[i] = float32(rng.NormFloat64() * 0.01)
			case 1:
				src[i] = float32(rng.NormFloat64())
			case 2:
				src[i] = 0
			default:
				src[i] = float32(rng.NormFloat64() * 10)
			}
		}
		w := bitio.NewWriter(4 * count)
		CompressStream(w, src, b)
		if int64(w.Len()) != CompressedBits(src, b) {
			return false
		}
		dst := make([]float32, count)
		if err := DecompressStream(bitio.NewReader(w.Bytes(), w.Len()), dst, b); err != nil {
			return false
		}
		for i := range src {
			if TagOf(src[i], b) == TagNone {
				if dst[i] != src[i] && !(math.IsNaN(float64(src[i])) && math.IsNaN(float64(dst[i]))) {
					return false
				}
			} else if math.Abs(float64(dst[i])-float64(src[i])) > b.MaxError() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressStreamTruncated(t *testing.T) {
	b := MustBound(10)
	src := make([]float32, 64)
	for i := range src {
		src[i] = 0.3
	}
	w := bitio.NewWriter(256)
	CompressStream(w, src, b)
	// Chop the stream in half.
	r := bitio.NewReader(w.Bytes(), w.Len()/2)
	dst := make([]float32, 64)
	if err := DecompressStream(r, dst, b); err == nil {
		t.Fatal("expected error decoding truncated stream")
	}
}

func TestCompressionRatioOfSparseStream(t *testing.T) {
	// A stream of all-below-bound values compresses 8 floats into 16 tag
	// bits: ratio 16x, the codec's ceiling (paper: "close to 15x").
	b := MustBound(6)
	src := make([]float32, 8000)
	for i := range src {
		src[i] = 1e-5
	}
	if got := Ratio(src, b); math.Abs(got-16) > 1e-9 {
		t.Errorf("all-zero-class ratio = %g, want 16", got)
	}
}

func TestTagStats(t *testing.T) {
	b := MustBound(10)
	var s TagStats
	s.Observe([]float32{0, 1e-9, 0.01, 0.5, 2.0}, b)
	if s.Total() != 5 {
		t.Fatalf("Total = %d", s.Total())
	}
	if s.Count[TagZero] != 2 || s.Count[Tag8] != 1 || s.Count[Tag16] != 1 || s.Count[TagNone] != 1 {
		t.Fatalf("counts = %v", s.Count)
	}
	wantAvg := float64(2+2+10+18+34) / 5
	if math.Abs(s.AverageBits()-wantAvg) > 1e-9 {
		t.Fatalf("AverageBits = %g, want %g", s.AverageBits(), wantAvg)
	}
	if f := s.Fraction(TagZero); math.Abs(f-0.4) > 1e-9 {
		t.Fatalf("Fraction(TagZero) = %g", f)
	}
}

// TestTableIIIStructure checks that on a realistic tight-around-zero
// gradient distribution the class fractions move the way Table III shows:
// relaxing the bound (larger error) grows the zero class and shrinks the
// wide classes.
func TestTableIIIStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grads := make([]float32, 200000)
	for i := range grads {
		// Mixture: a tight core with a heavier tail, the shape of Fig. 5.
		if rng.Intn(10) == 0 {
			grads[i] = float32(rng.NormFloat64() * 0.05)
		} else {
			grads[i] = float32(rng.NormFloat64() * 0.0008)
		}
	}
	var s10, s8, s6 TagStats
	s10.Observe(grads, MustBound(10))
	s8.Observe(grads, MustBound(8))
	s6.Observe(grads, MustBound(6))

	if !(s6.Fraction(TagZero) > s8.Fraction(TagZero) && s8.Fraction(TagZero) > s10.Fraction(TagZero)) {
		t.Errorf("zero-class fractions not monotone: %g %g %g",
			s10.Fraction(TagZero), s8.Fraction(TagZero), s6.Fraction(TagZero))
	}
	if s6.Count[Tag16] != 0 {
		t.Errorf("E=6 produced %d Tag16 values", s6.Count[Tag16])
	}
	if s10.Fraction(TagZero) < 0.5 {
		t.Errorf("E=10 zero class = %g, expected the majority", s10.Fraction(TagZero))
	}
}

func TestCompressedBitsMatchesStream(t *testing.T) {
	b := MustBound(8)
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 7, 8, 9, 100, 1023} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 0.3)
		}
		w := bitio.NewWriter(4 * n)
		CompressStream(w, src, b)
		if int64(w.Len()) != CompressedBits(src, b) {
			t.Errorf("n=%d: stream %d bits, CompressedBits %d", n, w.Len(), CompressedBits(src, b))
		}
	}
}

func BenchmarkCompressScalar(b *testing.B) {
	bound := MustBound(10)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64() * 0.01)
	}
	b.SetBytes(4)
	for i := 0; i < b.N; i++ {
		Compress(vals[i&4095], bound)
	}
}

func BenchmarkCompressStream64K(b *testing.B) {
	bound := MustBound(10)
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
		CompressStream(w, src, bound)
	}
}

func BenchmarkDecompressStream64K(b *testing.B) {
	bound := MustBound(10)
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 64*1024)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 0.01)
	}
	w := bitio.NewWriter(4 * len(src))
	CompressStream(w, src, bound)
	dst := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(w.Bytes(), w.Len())
		if err := DecompressStream(r, dst, bound); err != nil {
			b.Fatal(err)
		}
	}
}
