package fpcodec

import (
	"math/bits"

	"inceptionn/internal/par"
)

// The group kernel runs one burst group per YMM register in AVX2
// (kernel_amd64.s) — the eight CBs and alignment unit of Fig. 9, the tag
// decoder and eight DBs of Fig. 10 — and leaves the rest to the Go loops
// in kernel.go, which stay the reference. The lanes compute what a table
// row computes, so streams are byte-identical and decoded floats
// bit-identical on both paths (DESIGN.md §2, "the lanes").

// useAVX2 selects the AVX2 lanes: set once from the CPU, and by tests
// (through SetLanes) to run the differential tables on both paths.
var useAVX2 = par.HasAVX2()

// SetLanes turns the AVX2 lanes on (where the CPU has them) or off and
// reports whether they were on. It is the hook the tests of fpcodec and
// nic run their tables on both kernel paths with.
func SetLanes(on bool) bool {
	prev := useAVX2
	useAVX2 = on && par.HasAVX2()
	return prev
}

// laneTable is one bound's per-tag constants, each a YMM register the
// lanes index by tag with VPERMD (tags 0–3; the upper four entries are
// unused), and the class thresholds the encoder compares exponents with.
type laneTable struct {
	// Encode. A Tag8 or Tag16 lane is sig >> (shift[tag] − x) | sign <<
	// signAt[tag], sig the 24-bit significand and x the biased exponent.
	// TagZero and TagNone lanes shift by 32 or more, to zero; a TagNone
	// lane then takes the verbatim bits.
	shift, signAt [8]uint32
	// Decode, as decRow: float32(x & frac)·scale | (x << signTo) & 1<<31
	// | x & pass, x the lane's bytes zero-extended.
	frac   [8]uint32
	scale  [8]float32
	signTo [8]uint32
	pass   [8]uint32
	// x > thresh[i] for i < tag: 126−E, 126−s8, 126.
	thresh [3]int32
}

var laneTables [16]laneTable

// tagSpread[b] puts bit i of b at bit 2i: two lookups interleave the low
// and high tag bits of eight lanes into a tag vector.
var tagSpread [256]uint16

// packShuf[t] is the alignment unit for the four lanes whose tags are the
// byte t: the VPSHUFB mask that packs their low 0, 1, 2 or 4 bytes, in
// lane order, into laneBytes[t] bytes. unpackShuf[t] runs it in reverse,
// zero-extending each lane back to 32 bits.
var packShuf, unpackShuf [256][16]byte

func init() {
	for b := range tagSpread {
		for i := 0; i < 8; i++ {
			tagSpread[b] |= uint16(b>>i&1) << (2 * i)
		}
	}
	for t := range packShuf {
		for i := range packShuf[t] {
			packShuf[t][i], unpackShuf[t][i] = 0x80, 0x80 // 0x80: a zero byte
		}
		o := 0
		for lane := 0; lane < 4; lane++ {
			for k := 0; k < Tag(t>>(2*lane)&0b11).Bits()/8; k++ {
				packShuf[t][o] = byte(4*lane + k)
				unpackShuf[t][4*lane+k] = byte(o)
				o++
			}
		}
	}
	const none = 32 // a shift by 32 or more clears every bit
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		l := &laneTables[e]
		l.shift = [8]uint32{255 + none, uint32(143 - b.s8), 135, 255 + none}
		l.signAt = [8]uint32{none, 7, 15, none}
		l.thresh = [3]int32{int32(126 - b.e), int32(126 - b.s8), 126}
		for tag := TagZero; tag <= TagNone; tag++ {
			r := b.decRow(tag)
			l.frac[tag], l.scale[tag], l.pass[tag] = r.frac, r.scale, r.pass
			l.signTo[tag] = uint32(bits.TrailingZeros32(r.signMul)) // 32 for no sign
		}
	}
}

// encodeLanes encodes src's whole groups from byte pos of buf in AVX2
// lanes and returns how many values it took and the byte position after
// them; it takes none without AVX2. A group's stores stay inside its
// worst case, maxGroupBytes from its first byte, which the bounds check
// holds buf to.
func encodeLanes(buf []byte, pos int, src []float32, e int) (int, int) {
	groups := len(src) / GroupSize
	if !useAVX2 || groups == 0 {
		return 0, pos
	}
	_ = buf[pos+groups*maxGroupBytes-1]
	return groups * GroupSize, encodeGroupsAVX2(&buf[0], pos, &src[0], groups, &laneTables[e])
}

// decodeLanes decodes whole groups from byte p of data in AVX2 lanes, as
// decodeGroups does and stopping where it would, and returns how many
// values it produced and the byte position it stopped at. It produces
// none without AVX2, for a stream that starts mid-byte, or for a final
// partial group (keep masks its tag vector).
func decodeLanes(dst []float32, data []byte, p, lim int, phase uint, keep uint32, e int) (int, int) {
	if !useAVX2 || phase != 0 || keep != 1<<TagVectorBits-1 || len(dst) < GroupSize || p > len(data)-loadReach {
		return 0, p
	}
	n, p := decodeGroupsAVX2(&dst[0], len(dst)/GroupSize, &data[0], p, lim, len(data)-loadReach, &laneTables[e])
	return n * GroupSize, p
}

// encodeGroupsAVX2 encodes groups > 0 whole groups of src from byte pos of
// buf and returns the byte position after them.
//
//go:noescape
func encodeGroupsAVX2(buf *byte, pos int, src *float32, groups int, t *laneTable) int

// decodeGroupsAVX2 decodes up to groups > 0 whole groups from byte p of
// data into dst. It stops before a group that starts past last or does
// not end within lim, and returns the groups decoded and the byte position
// it stopped at. Its loads reach at most 34 bytes past a group's first.
//
//go:noescape
func decodeGroupsAVX2(dst *float32, groups int, data *byte, p, lim, last int, t *laneTable) (n, end int)
