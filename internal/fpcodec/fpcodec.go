// Package fpcodec implements the INCEPTIONN lossy compression algorithm for
// 32-bit floating-point gradient values (Li et al., MICRO 2018, Algorithms
// 2 and 3).
//
// The algorithm exploits two value properties of DNN gradients: almost all
// values lie in (-1.0, 1.0), and the distribution peaks tightly around zero.
// Each float32 is encoded into one of four classes selected by a 2-bit tag:
//
//	TagZero (0b00): |v| below the error bound — 0 data bits, decodes to 0.
//	Tag8    (0b01): small value — 8 data bits (sign + 7 fraction bits).
//	Tag16   (0b10): larger value in (-1,1) — 16 data bits (sign + 15 fraction bits).
//	TagNone (0b11): |v| ≥ 1.0 (or NaN/Inf) — 32 data bits, stored verbatim.
//
// For an error bound 2^-E the fraction windows are positioned so that the
// absolute reconstruction error of any |v| < 1.0 is at most 2^-E:
//
//   - Tag8 stores the 7 fixed-point fraction bits at positions s8+1 … s8+7
//     where s8 = max(E-7, 0); it applies when |v| < 2^-s8, so the skipped
//     leading fraction bits are provably zero and the truncation error is
//     ≤ 2^-(s8+7) ≤ 2^-E.
//   - Tag16 stores fraction bits at positions 1 … 15 (error ≤ 2^-15).
//
// This reconstruction matches the bitwidth classes {2, 10, 18, 34} of the
// paper's Table III, including the structural facts that the 18-bit class is
// empty for E ≤ 7 and covers exactly [0.5, 1.0) for E = 8.
//
// The canonical serialized form is the hardware burst-group format produced
// by the NIC compression engine (paper Fig. 9): values are processed in
// groups of eight lanes; each group emits a 16-bit tag vector (lane i in
// bits 2i..2i+1) followed by the concatenated variable-size data vectors of
// lanes 0..7, packed LSB-first. A full group therefore occupies between 16
// and 272 bits.
package fpcodec

import (
	"fmt"
	"math"

	"inceptionn/internal/bitio"
	"inceptionn/internal/par"
)

// Tag identifies the compression class of one value.
type Tag uint8

// Tag values. The numeric encodings follow the paper: NO_COMPRESS is 2'b11.
const (
	TagZero Tag = 0b00 // 0 data bits
	Tag8    Tag = 0b01 // 8 data bits
	Tag16   Tag = 0b10 // 16 data bits
	TagNone Tag = 0b11 // 32 data bits
)

// Bits returns the number of data bits used by the class (excluding the
// 2-bit tag itself).
func (t Tag) Bits() int {
	switch t {
	case TagZero:
		return 0
	case Tag8:
		return 8
	case Tag16:
		return 16
	default:
		return 32
	}
}

// String implements fmt.Stringer.
func (t Tag) String() string {
	switch t {
	case TagZero:
		return "0bit"
	case Tag8:
		return "8bit"
	case Tag16:
		return "16bit"
	default:
		return "nocompress"
	}
}

// GroupSize is the number of values per burst group, equal to the number of
// compression blocks (CBs) in the NIC engine: 256 AXI bits / 32 bits.
const GroupSize = 8

// TagVectorBits is the size of the per-group tag vector.
const TagVectorBits = 2 * GroupSize

// Bound is an absolute error bound 2^-E for the lossy compression.
type Bound struct {
	e  int
	s8 int // leading fraction bits skipped by the Tag8 window
}

// NewBound returns the bound 2^-e. e must be in [1, 15]; the 15-bit Tag16
// fraction window cannot guarantee tighter bounds. The paper evaluates
// e ∈ {6, 8, 10}.
func NewBound(e int) (Bound, error) {
	if e < 1 || e > 15 {
		return Bound{}, fmt.Errorf("fpcodec: error-bound exponent %d out of range [1,15]", e)
	}
	s8 := e - 7
	if s8 < 0 {
		s8 = 0
	}
	return Bound{e: e, s8: s8}, nil
}

// MustBound is NewBound that panics on invalid exponents; for use with
// compile-time-constant exponents.
func MustBound(e int) Bound {
	b, err := NewBound(e)
	if err != nil {
		panic(err)
	}
	return b
}

// Exp returns the error-bound exponent E (bound is 2^-E).
func (b Bound) Exp() int { return b.e }

// MaxError returns the guaranteed absolute error bound 2^-E.
func (b Bound) MaxError() float64 { return math.Ldexp(1, -b.e) }

// String implements fmt.Stringer, e.g. "2^-10".
func (b Bound) String() string { return fmt.Sprintf("2^-%d", b.e) }

// Compress encodes a single float32 into a compressed bit vector and tag
// (paper Algorithm 2). The returned vector occupies the tag.Bits() least
// significant bits of v.
func Compress(f float32, b Bound) (v uint32, tag Tag) {
	bits := math.Float32bits(f)
	e := int(bits>>23) & 0xFF
	if e >= 127 {
		// |f| ≥ 1.0, NaN, or Inf: ship verbatim.
		return bits, TagNone
	}
	sign := bits >> 31
	if e == 0 {
		// Zero and denormals (< 2^-126) are far below any permitted bound.
		return 0, TagZero
	}
	d := 127 - e // leading-one fraction position: |f| ∈ [2^-d, 2^-d+1)
	if d > b.e {
		return 0, TagZero
	}
	sig := (bits & 0x7FFFFF) | (1 << 23) // 1.m as a 24-bit integer
	if d > b.s8 {
		// Tag8 window: fraction positions s8+1 … s8+7.
		frac := sig >> uint(d+16-b.s8)
		return sign<<7 | frac, Tag8
	}
	// Tag16 window: fraction positions 1 … 15.
	frac := sig >> uint(d+8)
	return sign<<15 | frac, Tag16
}

// Decompress decodes a compressed bit vector produced by Compress with the
// same bound (paper Algorithm 3).
func Decompress(v uint32, tag Tag, b Bound) float32 {
	switch tag {
	case TagZero:
		return 0
	case Tag8:
		frac := v & 0x7F
		f := float32(math.Ldexp(float64(frac), -(b.s8 + 7)))
		if v>>7&1 == 1 {
			return -f
		}
		return f
	case Tag16:
		frac := v & 0x7FFF
		f := float32(math.Ldexp(float64(frac), -15))
		if v>>15&1 == 1 {
			return -f
		}
		return f
	default:
		return math.Float32frombits(v)
	}
}

// Roundtrip returns Decompress(Compress(f, b), b): the value a receiver
// would observe. It is the identity for |f| ≥ 1.0, NaN and ±Inf, and +0 for
// the TagZero class. A Tag8 or Tag16 value keeps its sign and exponent and
// loses the fraction bits below its window, so the result is f's bits under
// a mask that depends only on the bound and f's exponent: one lookup in
// rtMask, with no branch. Compress and Decompress are its reference.
func Roundtrip(f float32, b Bound) float32 {
	bits := math.Float32bits(f)
	return math.Float32frombits(bits & rtMask[b.e][bits>>23&0xFF])
}

// rtMask[e][x] is Roundtrip's mask for the bound 2^-e and the biased
// exponent x: all ones for x ≥ 127 (|f| ≥ 1.0, NaN, ±Inf); zero for
// |f| < 2^-e (d = 127−x > e; x = 0, zero and denormals, gives d = 127);
// otherwise the low d+16−s8 (Tag8, d > s8) or d+8 (Tag16) bits of
// |f| ∈ [2^-d, 2^-d+1) cleared. Row 0 serves the zero Bound.
var rtMask = func() (t [16][256]uint32) {
	for e := range t {
		s8 := max(e-7, 0)
		for x := range t[e] {
			d := 127 - x
			switch {
			case d <= 0:
				t[e][x] = ^uint32(0)
			case d <= e:
				cut := d + 8 // Tag16: fraction positions 1 … 15 survive
				if d > s8 {
					cut = d + 16 - s8 // Tag8: positions s8+1 … s8+7
				}
				t[e][x] = ^uint32(1<<cut - 1)
			}
		}
	}
	return t
}()

// TagOf returns only the classification of f under bound b.
func TagOf(f float32, b Bound) Tag {
	_, tag := Compress(f, b)
	return tag
}

// CompressGroup encodes up to GroupSize values as one burst group into w:
// a 16-bit tag vector followed by the concatenated data vectors. Lanes
// beyond len(vals) are tagged TagZero and carry no data, mirroring the
// hardware engine's zero-padded final burst. len(vals) must be in
// [1, GroupSize].
func CompressGroup(w *bitio.Writer, vals []float32, b Bound) {
	if len(vals) == 0 || len(vals) > GroupSize {
		panic(fmt.Sprintf("fpcodec: group of %d values", len(vals)))
	}
	CompressStream(w, vals, b)
}

// DecompressGroup decodes one burst group from r into dst. len(dst) lanes
// are produced; trailing lanes of the group (if len(dst) < GroupSize) are
// consumed as the encoder wrote them (TagZero, no data). len(dst) must be
// in [1, GroupSize].
func DecompressGroup(r *bitio.Reader, dst []float32, b Bound) error {
	if len(dst) == 0 || len(dst) > GroupSize {
		panic(fmt.Sprintf("fpcodec: group of %d values", len(dst)))
	}
	return DecompressStream(r, dst, b)
}

// streamShards returns the number of group-aligned shards CompressStream
// encodes n values in: enough values per shard to amortize fan-out, capped
// by the worker pool size. A return of 1 selects the sequential path.
func streamShards(n int) int {
	const minShardValues = 16 * 1024
	shards := n / minShardValues
	if w := par.Workers(); shards > w {
		shards = w
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// shardBounds splits n values into group-aligned shards: every shard but
// the last covers a whole number of burst groups, so shard streams
// concatenate into exactly the sequential stream.
func shardBounds(n, shards, s int) (lo, hi int) {
	groups := (n + GroupSize - 1) / GroupSize
	per, rem := groups/shards, groups%shards
	glo := s*per + min(s, rem)
	gcount := per
	if s < rem {
		gcount++
	}
	lo = glo * GroupSize
	if lo > n {
		lo = n // more shards than groups: trailing shards are empty
	}
	hi = lo + gcount*GroupSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// CompressStream encodes src into w using consecutive burst groups.
//
// Large inputs are compressed in parallel: group-aligned shards run the
// kernel into private storage, and because a burst group is self-contained
// and a whole number of bytes the shard streams append into exactly the
// sequential stream, for any worker count. Decoding is not sharded: finding
// a shard's first bit means walking every tag vector before it, which
// costs about what decoding those groups costs: measured, a second core
// gained the Go loops nothing and made the AVX2 lanes slower (DESIGN.md §8).
func CompressStream(w *bitio.Writer, src []float32, b Bound) {
	shards := streamShards(len(src))
	buf, nbit := w.Lend()
	if shards <= 1 {
		w.Restore(AppendGroups(buf, nbit, src, b))
		return
	}
	parts := make([][]byte, shards)
	par.For(shards, 1, func(plo, phi int) {
		for s := plo; s < phi; s++ {
			lo, hi := shardBounds(len(src), shards, s)
			parts[s], _ = AppendGroups(make([]byte, 0, (hi-lo+1)/2), 0, src[lo:hi], b) // ~¼ size or less
		}
	})
	for _, part := range parts {
		buf, nbit = appendBytes(buf, nbit, part)
	}
	w.Restore(buf, nbit)
}

// DecompressStream decodes len(dst) values from r, leaving r after the last
// group. The stream must have been produced by CompressStream with the same
// bound and value count.
func DecompressStream(r *bitio.Reader, dst []float32, b Bound) error {
	data, pos, limit := r.Lend()
	end, err := DecodeGroups(dst, data, pos, limit, b)
	if err != nil {
		return err
	}
	return r.Skip(end - pos)
}

// CompressedBits returns the exact serialized size of src in bits under
// bound b, without materializing the stream.
func CompressedBits(src []float32, b Bound) int64 {
	groups := (int64(len(src)) + GroupSize - 1) / GroupSize
	total := groups * TagVectorBits
	for _, f := range src {
		_, tag := Compress(f, b)
		total += int64(tag.Bits())
	}
	return total
}

// Ratio returns the compression ratio (uncompressed bits / compressed bits)
// of src under bound b. It reports 0 for an empty slice.
func Ratio(src []float32, b Bound) float64 {
	if len(src) == 0 {
		return 0
	}
	return float64(32*int64(len(src))) / float64(CompressedBits(src, b))
}

// TagStats accumulates the per-class value counts used for the paper's
// Table III.
type TagStats struct {
	Count [4]int64 // indexed by Tag
}

// Observe classifies every value of src under bound b.
func (s *TagStats) Observe(src []float32, b Bound) {
	for _, f := range src {
		_, tag := Compress(f, b)
		s.Count[tag]++
	}
}

// Total returns the number of observed values.
func (s *TagStats) Total() int64 {
	return s.Count[0] + s.Count[1] + s.Count[2] + s.Count[3]
}

// Fraction returns the fraction of observed values in class t, in [0, 1].
func (s *TagStats) Fraction(t Tag) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Count[t]) / float64(total)
}

// AverageBits returns the mean serialized bits per value including the
// 2-bit tag.
func (s *TagStats) AverageBits() float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	bits := int64(0)
	for t := TagZero; t <= TagNone; t++ {
		bits += s.Count[t] * int64(2+t.Bits())
	}
	return float64(bits) / float64(total)
}
