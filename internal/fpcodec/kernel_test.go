package fpcodec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inceptionn/internal/bitio"
	"inceptionn/internal/par"
)

// kernelPaths names the kernel paths this machine can run, the portable Go
// loops first: the differential tables run the kernel on each.
func kernelPaths() []string {
	if par.HasAVX2() {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// useKernelPath selects a path and returns the one it replaces.
func useKernelPath(path string) string {
	if SetLanes(path == "avx2") {
		return "avx2"
	}
	return "go"
}

// onKernelPaths runs f as a subtest on each kernel path.
func onKernelPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range kernelPaths() {
		t.Run(path, func(t *testing.T) {
			defer useKernelPath(useKernelPath(path))
			f(t)
		})
	}
}

// OnKernelPaths is onKernelPaths for the external test package.
var OnKernelPaths = onKernelPaths

// refCompressStream is the wire format spelled out with the scalar
// reference: per group of eight a 16-bit tag vector, then each lane's data
// bits, one bitio.WriteBits at a time. It is what the kernel must equal.
func refCompressStream(w *bitio.Writer, src []float32, b Bound) {
	for len(src) > 0 {
		g := src[:min(len(src), GroupSize)]
		src = src[len(g):]
		var tags uint64
		var data [GroupSize]uint32
		var tag [GroupSize]Tag
		for i, f := range g {
			data[i], tag[i] = Compress(f, b)
			tags |= uint64(tag[i]) << uint(2*i)
		}
		w.WriteBits(tags, TagVectorBits)
		for i := range g {
			w.WriteBits(uint64(data[i]), tag[i].Bits())
		}
	}
}

// refDecompressStream is the bit-at-a-time decoder built from scalar
// Decompress: it reads a lane only once the previous one is in, so it fails
// exactly where a stream runs out, and in a final partial group it honours
// only the tags of the lanes it produces.
func refDecompressStream(r *bitio.Reader, dst []float32, b Bound) error {
	for len(dst) > 0 {
		g := dst[:min(len(dst), GroupSize)]
		dst = dst[len(g):]
		tags, err := r.ReadBits(TagVectorBits)
		if err != nil {
			return err
		}
		for i := range g {
			tag := Tag(tags >> uint(2*i) & 0b11)
			v, err := r.ReadBits(tag.Bits())
			if err != nil {
				return err
			}
			g[i] = Decompress(uint32(v), tag, b)
		}
	}
	return nil
}

// sameBits reports whether two decoded vectors are the same bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func fastTestVector(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0:
			out[i] = float32(rng.NormFloat64()) // includes |v| >= 1
		case 1:
			out[i] = 0
		default:
			out[i] = float32(rng.NormFloat64() * 0.003)
		}
	}
	return out
}

// trainingMix returns n values with the tag mix training's gradients have at
// 2^-10 (55 % zero / 43 % 8-bit / 2 % 16-bit, ratio ≈ 5.5) in an order no
// branch predictor can learn.
func trainingMix(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.55:
			out[i] = float32(rng.Float64() * 0.0009)
		case r < 0.98:
			out[i] = float32(0.001 + rng.Float64()*0.12)
		default:
			out[i] = float32(0.13 + rng.Float64()*0.8)
		}
		if rng.Intn(2) == 0 {
			out[i] = -out[i]
		}
	}
	return out
}

// The five TestFast*/TestQuickFast* tests predate the kernel: they pinned
// fast.go's word-staged Encoder/Decoder against the bitio codec. The kernel
// replaced both, and they now pin it against the scalar reference.

// TestFastEncoderBitExact: the kernel must produce the identical byte
// stream as the scalar reference, appending to storage it is handed.
func TestFastEncoderBitExact(t *testing.T) { onKernelPaths(t, testFastEncoderBitExact) }

func testFastEncoderBitExact(t *testing.T) {
	for _, e := range []int{6, 10, 15} {
		bound := MustBound(e)
		var buf []byte
		for _, n := range []int{1, 7, 8, 9, 100, 1000, 4096, 287252} {
			src := fastTestVector(n, int64(n*e))
			var bits int
			buf, bits = AppendGroups(buf[:0], 0, src, bound)

			w := bitio.NewWriter(4 * n)
			refCompressStream(w, src, bound)
			if bits != w.Len() {
				t.Fatalf("E=%d n=%d: kernel %d bits, reference %d", e, n, bits, w.Len())
			}
			if !bytes.Equal(buf, w.Bytes()) {
				t.Fatalf("E=%d n=%d: kernel bytes differ from the reference's", e, n)
			}
		}
	}
}

// TestFastDecoderMatchesReference: the kernel must reproduce the scalar
// reference decode exactly on reference-encoded streams.
func TestFastDecoderMatchesReference(t *testing.T) { onKernelPaths(t, testFastDecoderMatchesReference) }

func testFastDecoderMatchesReference(t *testing.T) {
	bound := MustBound(10)
	for _, n := range []int{1, 8, 9, 511, 1000, 4096, 287252} {
		src := fastTestVector(n, int64(n))
		w := bitio.NewWriter(4 * n)
		refCompressStream(w, src, bound)

		want := make([]float32, n)
		if err := refDecompressStream(bitio.NewReader(w.Bytes(), w.Len()), want, bound); err != nil {
			t.Fatal(err)
		}
		got := make([]float32, n)
		end, err := DecodeGroups(got, w.Bytes(), 0, w.Len(), bound)
		if err != nil {
			t.Fatal(err)
		}
		if end != w.Len() {
			t.Fatalf("n=%d: kernel stopped at bit %d of %d", n, end, w.Len())
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d: kernel decode differs from the reference's", n)
		}
	}
}

func TestFastDecoderTruncated(t *testing.T) { onKernelPaths(t, testFastDecoderTruncated) }

func testFastDecoderTruncated(t *testing.T) {
	bound := MustBound(10)
	src := fastTestVector(100, 3)
	data, bits := AppendGroups(nil, 0, src, bound)
	dst := make([]float32, 100)
	if _, err := DecodeGroups(dst, data, 0, bits/2, bound); !errors.Is(err, bitio.ErrShortRead) {
		t.Fatalf("truncated stream: %v, want ErrShortRead", err)
	}
	if _, err := DecodeGroups(dst, data[:2], 0, bits, bound); err == nil {
		t.Fatal("expected error on oversized bit declaration")
	}
}

func TestFastEncoderReusable(t *testing.T) {
	bound := MustBound(8)
	var data []byte
	for round := 0; round < 5; round++ {
		src := fastTestVector(64+round, int64(round))
		var bits int
		data, bits = AppendGroups(data[:0], 0, src, bound)
		dst := make([]float32, len(src))
		if _, err := DecodeGroups(dst, data, 0, bits, bound); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range src {
			if dst[i] != Roundtrip(src[i], bound) {
				t.Fatalf("round %d value %d", round, i)
			}
		}
	}
}

func TestQuickFastRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, eRaw uint8) bool {
		n := int(nRaw)%500 + 1
		bound := MustBound(int(eRaw)%15 + 1)
		src := fastTestVector(n, seed)
		data, bits := AppendGroups(nil, 0, src, bound)
		dst := make([]float32, n)
		if _, err := DecodeGroups(dst, data, 0, bits, bound); err != nil {
			return false
		}
		for i := range src {
			if math.Float32bits(dst[i]) != math.Float32bits(Roundtrip(src[i], bound)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelTableMatchesScalar ties the two places that decide the class
// thresholds together. Encode: for every bound, every sign and exponent, and
// mantissas at the edges plus seeded random ones, the table row gives
// scalar Compress's vector and tag. Decode: for every bound, every 8- and
// 16-bit lane (and a sample of verbatim ones), the table row gives scalar
// Decompress's bit pattern.
func TestKernelTableMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mantissas := []uint32{0, 1, 0x400000, 0x7FFFFF}
	for len(mantissas) < 65 {
		mantissas = append(mantissas, rng.Uint32()&0x7FFFFF)
	}
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		k := &kernelTables[e]
		for signExp := uint32(0); signExp < 512; signExp++ {
			for _, m := range mantissas {
				bits := signExp<<23 | m
				r := &k.enc[bits>>23]
				wantV, wantTag := Compress(math.Float32frombits(bits), b)
				if v, tag := r.lane(bits), r.tag(); v != wantV || tag != wantTag || int(r.bytes)*8 != tag.Bits() {
					t.Fatalf("E=%d bits=%#08x: table %#x/%s/%dB, Compress %#x/%s", e, bits, v, tag, r.bytes, wantV, wantTag)
				}
			}
		}
		junk := rng.Uint32() // a lane load also carries what follows the lane
		for v := uint32(0); v < 1<<16; v++ {
			for _, tag := range []Tag{TagZero, Tag8, Tag16, TagNone} {
				lane := v
				if tag == TagNone {
					lane = v<<16 | v ^ junk
				} else if tag == Tag8 && v >= 1<<8 {
					continue
				}
				x := lane
				if bits := tag.Bits(); bits < 32 {
					x |= junk << bits
					lane &= 1<<bits - 1
				}
				r := &k.dec[tag]
				if got, want := r.lane(x), math.Float32bits(Decompress(lane, tag, b)); got != want || int(r.bytes)*8 != tag.Bits() {
					t.Fatalf("E=%d %s lane %#x: table %#08x, Decompress %#08x", e, tag, lane, got, want)
				}
			}
		}
	}
	// The lanes compute what the rows compute, eight to a group. Encode:
	// one group per tag vector, each lane drawn in turn from the values
	// above of its class, so every sign, exponent and mantissa and every
	// tag byte of each half is used, encodes to the reference's stream.
	// Decode: every 8- and 16-bit lane, and verbatim and zero ones, in
	// shuffled order, decodes to Decompress's bits.
	onKernelPaths(t, func(t *testing.T) {
		for e := 1; e <= 15; e++ {
			b := MustBound(e)
			var pools [4][]float32
			for signExp := uint32(0); signExp < 512; signExp++ {
				for _, m := range mantissas {
					f := math.Float32frombits(signExp<<23 | m)
					pools[TagOf(f, b)] = append(pools[TagOf(f, b)], f)
				}
			}
			var src []float32
			var next [4]int
			for tv := 0; tv < 1<<TagVectorBits; tv++ {
				for lane := 0; lane < GroupSize; lane++ {
					tag := Tag(tv >> (2 * lane) & 0b11)
					if len(pools[tag]) == 0 {
						tag = TagZero // E ≤ 7 has no Tag16 class
					}
					src = append(src, pools[tag][next[tag]%len(pools[tag])])
					next[tag]++
				}
			}
			got, bits := AppendGroups(nil, 0, src, b)
			ref := bitio.NewWriter(0)
			refCompressStream(ref, src, b)
			if bits != ref.Len() || !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("E=%d: the lanes' stream differs from the reference's (%d vs %d bits)", e, bits, ref.Len())
			}

			type lane struct {
				v   uint32
				tag Tag
			}
			var lanes []lane
			shuffle := rand.New(rand.NewSource(int64(e)))
			for v := uint32(0); v < 1<<16; v++ {
				lanes = append(lanes, lane{v, Tag16}, lane{v & 0xFF, Tag8}, lane{v<<16 | v ^ shuffle.Uint32(), TagNone}, lane{0, TagZero})
			}
			shuffle.Shuffle(len(lanes), func(i, j int) { lanes[i], lanes[j] = lanes[j], lanes[i] })
			w := bitio.NewWriter(0)
			for g := lanes; len(g) > 0; g = g[GroupSize:] {
				var tags uint64
				for i, l := range g[:GroupSize] {
					tags |= uint64(l.tag) << (2 * i)
				}
				w.WriteBits(tags, TagVectorBits)
				for _, l := range g[:GroupSize] {
					w.WriteBits(uint64(l.v), l.tag.Bits())
				}
			}
			dst := make([]float32, len(lanes))
			if end, err := DecodeGroups(dst, w.Bytes(), 0, w.Len(), b); err != nil || end != w.Len() {
				t.Fatalf("E=%d: decoding every lane: stopped at bit %d of %d, %v", e, end, w.Len(), err)
			}
			for i, l := range lanes {
				if got, want := math.Float32bits(dst[i]), math.Float32bits(Decompress(l.v, l.tag, b)); got != want {
					t.Fatalf("E=%d %s lane %#x: %#08x, Decompress %#08x", e, l.tag, l.v, got, want)
				}
			}
		}
	})
}

// TestAppendGroupsAtAnyBitOffset: appending to a stream that does not end on
// a byte gives the reference's bits, whatever the offset, and leaves the
// bits before it alone.
func TestAppendGroupsAtAnyBitOffset(t *testing.T) { onKernelPaths(t, testAppendGroupsAtAnyBitOffset) }

func testAppendGroupsAtAnyBitOffset(t *testing.T) {
	bound := MustBound(10)
	for offset := 0; offset < 20; offset++ {
		for _, n := range []int{0, 1, 3, 8, 9, 100, 1000} {
			src := fastTestVector(n, int64(offset*1000+n))
			ref, w := bitio.NewWriter(0), bitio.NewWriter(0)
			ref.WriteBits(0x5A5A5, offset)
			w.WriteBits(0x5A5A5, offset)
			refCompressStream(ref, src, bound)
			CompressStream(w, src, bound)
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("offset=%d n=%d: kernel stream differs from the reference's (%d vs %d bits)", offset, n, w.Len(), ref.Len())
			}
			// The writer is still a writer: bits after the kernel's land
			// where they should.
			w.WriteBits(0x2A, 7)
			r := bitio.NewReader(w.Bytes(), w.Len())
			if err := r.Skip(offset); err != nil {
				t.Fatal(err)
			}
			dst := make([]float32, n)
			if err := DecompressStream(r, dst, bound); err != nil {
				t.Fatalf("offset=%d n=%d: %v", offset, n, err)
			}
			if v, err := r.ReadBits(7); err != nil || v != 0x2A {
				t.Fatalf("offset=%d n=%d: bits after the stream = %#x, %v", offset, n, v, err)
			}
		}
	}
}

// TestCheckStreamBits: a stream needs a tag vector per group of eight.
func TestCheckStreamBits(t *testing.T) {
	for _, c := range []struct {
		count, bits int
		ok          bool
	}{
		{0, 0, true}, {1, 15, false}, {1, 16, true}, {8, 16, true}, {9, 31, false}, {9, 32, true},
		{1 << 26, 0, false}, {math.MaxUint32, 64, false}, {-1, 64, false}, {1, -1, false},
	} {
		if err := CheckStreamBits(c.count, c.bits); (err == nil) != c.ok {
			t.Errorf("CheckStreamBits(%d, %d) = %v, want ok=%v", c.count, c.bits, err, c.ok)
		} else if err != nil && !errors.Is(err, bitio.ErrShortRead) {
			t.Errorf("CheckStreamBits(%d, %d) = %v, want an ErrShortRead", c.count, c.bits, err)
		}
	}
}

// TestKernelSteadyStateAllocs: encoding into warm storage and decoding into
// the caller's slice allocate nothing.
func TestKernelSteadyStateAllocs(t *testing.T) {
	bound := MustBound(10)
	src := trainingMix(4096, 1)
	data, bits := AppendGroups(nil, 0, src, bound)
	if n := testing.AllocsPerRun(20, func() { data, bits = AppendGroups(data[:0], 0, src, bound) }); n != 0 {
		t.Errorf("AppendGroups into warm storage: %v allocations per call, want 0", n)
	}
	dst := make([]float32, len(src))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeGroups(dst, data, 0, bits, bound); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeGroups into caller storage: %v allocations per call, want 0", n)
	}
}

// TestAppendGroupsGrowsByNeed: storage the kernel grows tracks the compressed
// size, not the 34-bytes-per-group worst case, and gets there in one
// allocation for gradients and two for incompressible input.
func TestAppendGroupsGrowsByNeed(t *testing.T) {
	bound := MustBound(10)
	verbatim := make([]float32, 64*1024)
	for i := range verbatim {
		verbatim[i] = float32(i + 1)
	}
	for _, c := range []struct {
		name   string
		src    []float32
		allocs float64
	}{{"training mix", trainingMix(64*1024, 2), 1}, {"all verbatim", verbatim, 2}} {
		data, _ := AppendGroups(nil, 0, c.src, bound)
		if worst := len(c.src) / GroupSize * maxGroupBytes; cap(data) > 2*len(data) || cap(data) > 5*worst/4 {
			t.Errorf("%s: %d-byte stream in %d bytes of storage (worst case %d)", c.name, len(data), cap(data), worst)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(5, func() { AppendGroups(nil, 0, c.src, bound) }); n != c.allocs {
			t.Errorf("%s: %v allocations from cold storage, want %v", c.name, n, c.allocs)
		}
	}
}

// raceEnabled is set by race_on_test.go under `go test -race`, whose
// runtime allocates on its own account, so an exact allocation count
// measures the race detector rather than the kernel.
var raceEnabled bool

func BenchmarkKernelEncodeTrainingMix(b *testing.B) {
	bound := MustBound(10)
	src := trainingMix(287252, 1) // one ring block of the HDC gradient
	data, _ := AppendGroups(nil, 0, src, bound)
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _ = AppendGroups(data[:0], 0, src, bound)
	}
}

func BenchmarkKernelDecodeTrainingMix(b *testing.B) {
	bound := MustBound(10)
	src := trainingMix(287252, 1)
	data, bits := AppendGroups(nil, 0, src, bound)
	dst := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeGroups(dst, data, 0, bits, bound); err != nil {
			b.Fatal(err)
		}
	}
}
