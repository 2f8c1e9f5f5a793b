package fpcodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"inceptionn/internal/bitio"
)

// The group kernel: the one implementation of the burst-group wire format,
// run by every compression path (CompressStream, the nic engines, the comm
// processors). It is the software form of the paper's eight parallel
// compression blocks, and it has no data-dependent branch per lane — the
// previous encoders branched on each value's class, and gradient classes
// are close to random, so most of their time went to mispredictions.
//
//   - Algorithm 2's four classes are rows of a table indexed by the value's
//     sign and biased exponent, and Algorithm 3's are rows indexed by tag:
//     a lane is a lookup and a few ALU operations.
//   - A tag vector and every lane is a whole number of bytes, so a stream
//     keeps the sub-byte phase it started with. The encoder writes lanes
//     with unconditional byte-aligned stores, each advancing the cursor by
//     its row's width, and closes the gap to an unaligned start afterwards;
//     the decoder reads them with unaligned loads shifted by that one phase.
//   - The decoder sizes a group from its tag vector by two lookups and
//     checks it against the end of the stream once, not lane by lane.
//
// The scalar Compress/Decompress stay as the Algorithm 2/3 reference; the
// table builders below are the only other place that decides the class
// thresholds, and TestKernelTableMatchesScalar ties the two together.

// encRow is Algorithm 2 for every float32 sharing one sign and biased
// exponent:
//
//	v = (bits & and) >> shift | or
//
// where and keeps the mantissa (every bit of a verbatim lane, none of a zero
// one) and or is the leading one and the sign where the shift lands them.
// The lane occupies bytes bytes; bytes − bytes/4 is its tag.
type encRow struct {
	and   uint32
	or    uint16
	shift uint8
	bytes uint8
}

// decRow is Algorithm 3 for one tag, applied to the 32 bits x at the lane:
//
//	v = float32(x & frac) * scale | x * signMul & 1<<31 | x & pass
//
// where frac is the fixed-point fraction, scale the exact power of two that
// places it, signMul what carries the lane's sign bit to bit 31, and pass
// every bit of a verbatim lane. The lane occupies bytes bytes.
type decRow struct {
	frac, signMul, pass uint32
	scale               float32
	bytes               uint8
}

// kernelTables holds the tables of every valid Bound, indexed by exponent.
var kernelTables [16]struct {
	enc [512]encRow // by sign and biased exponent: bits >> 23
	dec [4]decRow   // by tag
}

// laneBytes[t] is the data-byte total of the four lanes whose tags are packed
// in the byte t: two lookups size a group from its 16-bit tag vector.
var laneBytes [256]uint8

func init() {
	for t := range laneBytes {
		for lane := 0; lane < 4; lane++ {
			laneBytes[t] += uint8(Tag(t>>(2*lane)&0b11).Bits() / 8)
		}
	}
	for e := 1; e <= 15; e++ {
		b := MustBound(e)
		k := &kernelTables[e]
		for i := range k.enc {
			k.enc[i] = b.encRow(i>>8, i&0xFF)
		}
		for tag := TagZero; tag <= TagNone; tag++ {
			k.dec[tag] = b.decRow(tag)
		}
	}
}

// encRow builds the table row for sign bit sign and biased exponent exp; it
// mirrors Compress case by case.
func (b Bound) encRow(sign, exp int) encRow {
	const mantissa = 0x7FFFFF
	d := 127 - exp // leading-one fraction position
	switch {
	case exp >= 127:
		return encRow{and: math.MaxUint32, bytes: 4}
	case exp == 0 || d > b.e:
		return encRow{}
	case d > b.s8:
		shift := d + 16 - b.s8
		return encRow{and: mantissa, or: uint16(sign<<7 | 1<<(23-shift)), shift: uint8(shift), bytes: 1}
	default:
		shift := d + 8
		return encRow{and: mantissa, or: uint16(sign<<15 | 1<<(23-shift)), shift: uint8(shift), bytes: 2}
	}
}

// decRow builds the table row for tag; it mirrors Decompress. Multiplying
// the integer fraction by a power of two is exact (the fraction has at most
// 15 significant bits and the product is far above the denormal range), so
// it equals the reference's math.Ldexp bit for bit, and OR-ing the sign in
// afterwards is its negation, −0 included.
func (b Bound) decRow(tag Tag) decRow {
	switch tag {
	case TagZero:
		return decRow{}
	case Tag8:
		return decRow{frac: 0x7F, signMul: 1 << (31 - 7), scale: float32(math.Ldexp(1, -(b.s8 + 7))), bytes: 1}
	case Tag16:
		return decRow{frac: 0x7FFF, signMul: 1 << (31 - 15), scale: float32(math.Ldexp(1, -15)), bytes: 2}
	default:
		return decRow{pass: math.MaxUint32, bytes: 4}
	}
}

// lane encodes one value: the row of its sign and exponent applied to its
// bits.
func (r *encRow) lane(bits uint32) uint32 {
	return bits&r.and>>(r.shift&31) | uint32(r.or)
}

// tag is the 2-bit class of the row's lanes.
func (r *encRow) tag() Tag { return Tag(r.bytes - r.bytes>>2) }

// lane decodes one value from the 32 bits at the lane.
func (r *decRow) lane(x uint32) uint32 {
	return math.Float32bits(float32(int32(x&r.frac))*r.scale) | x*r.signMul&(1<<31) | x&r.pass
}

const (
	// maxGroupBytes is the worst-case group: a tag vector and eight
	// verbatim lanes.
	maxGroupBytes = (TagVectorBits + GroupSize*32) / 8
	// batchGroups is how many groups AppendGroups encodes between checks
	// of its storage: only a batch's worst case must be there ahead of the
	// cursor, so storage grows with what the data needs rather than by 34
	// bytes per group up front.
	batchGroups = 16
	// laneStore and laneLoad are the widths of the unconditional lane
	// store (encode) and the unaligned lane load (decode).
	laneStore, laneLoad = 4, 8
)

// AppendGroups appends the burst-group encoding of src to a stream of nbit
// bits held in buf[:⌈nbit/8⌉] (spare high bits of the last byte zero, as
// bitio.Writer keeps them), starting at that — possibly unaligned — bit.
// It returns the storage, grown if cap(buf) did not suffice and resliced to
// the new length, and the new exact bit length. A final partial group's
// missing lanes are tagged TagZero and carry no data.
func AppendGroups(buf []byte, nbit int, src []float32, b Bound) ([]byte, int) {
	if nbit < 0 || len(buf) < (nbit+7)>>3 {
		panic(fmt.Sprintf("fpcodec: %d bits declared in %d bytes", nbit, len(buf)))
	}
	// A tag vector and every lane are whole bytes, so the groups are
	// written byte-aligned from the next whole byte; an unaligned stream's
	// spare bits are closed up afterwards.
	from := (nbit + 7) >> 3
	pos := from
	for rest := src; len(rest) > 0; {
		batch := rest[:min(len(rest), batchGroups*GroupSize)]
		rest = rest[len(batch):]
		groups := (len(batch) + GroupSize - 1) / GroupSize
		if need := pos + groups*maxGroupBytes + laneStore; cap(buf) < need {
			// Reserve the rest of the input at the whole bytes per value
			// seen so far, rounded up: one — the ratio of 4 callers assume
			// of gradients — before anything was seen.
			left, done := len(batch)+len(rest), len(src)-len(batch)-len(rest)
			buf = slices.Grow(buf[:pos], max(need-pos, left*(1+(pos-from)/max(done, 1))))
		}
		buf = buf[:cap(buf)]
		whole := len(batch) &^ (GroupSize - 1)
		pos = encodeGroups(buf, pos, batch[:whole], b.e)
		if whole < len(batch) {
			// +0 is TagZero with no data: padding with it is the format's
			// own rule for the lanes a final group lacks.
			var last [GroupSize]float32
			copy(last[:], batch[whole:])
			pos = encodeGroups(buf, pos, last[:], b.e)
		}
	}
	end := closeGap(buf[:pos], nbit)
	totalStreamValues.Add(int64(len(src)))
	totalStreamBits.Add(int64(end - nbit))
	return buf[:(end+7)>>3], end
}

// encodeGroups encodes the whole groups of src under the bound 2^-e from
// byte pos of buf, which has room for their worst case and one lane store
// behind it, and returns the byte position after them. The AVX2 lanes take
// the groups where the CPU has them (kernel_amd64.go); this loop is the
// reference, and the kernel elsewhere.
func encodeGroups(buf []byte, pos int, src []float32, e int) int {
	done, pos := encodeLanes(buf, pos, src, e)
	enc := &kernelTables[e].enc
	for src := src[done:]; len(src) >= GroupSize; src = src[GroupSize:] {
		tagPos := pos
		pos += TagVectorBits / 8
		var tags uint16
		for _, f := range (*[GroupSize]float32)(src) {
			bits := math.Float32bits(f)
			r := &enc[bits>>23]
			binary.LittleEndian.PutUint32(buf[pos:], r.lane(bits))
			pos += int(r.bytes)
			tags = tags>>2 | uint16(r.tag())<<(TagVectorBits-2)
		}
		binary.LittleEndian.PutUint16(buf[tagPos:], tags)
	}
	return pos
}

// closeGap finishes an append of whole bytes to an nbit-bit stream: the
// bytes were written from the next whole byte, buf[⌈nbit/8⌉:], and move down
// into the spare high bits of the byte before. It returns the stream's new
// bit length.
func closeGap(buf []byte, nbit int) int {
	from := (nbit + 7) >> 3
	end := nbit + (len(buf)-from)<<3
	keep := uint(nbit) & 7 // bits in use in buf[from-1]
	if keep == 0 || len(buf) == from {
		return end
	}
	b := buf[from-1:]
	carry := uint64(b[0]) & (1<<keep - 1)
	i := 0
	for ; i+8 < len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i+1:])
		binary.LittleEndian.PutUint64(b[i:], carry|x<<keep)
		carry = x >> (64 - keep)
	}
	for ; i+1 < len(b); i++ {
		x := uint64(b[i+1])
		b[i] = byte(carry | x<<keep)
		carry = x >> (8 - keep)
	}
	b[i] = byte(carry)
	return end
}

// CheckStreamBits rejects a stream of bits bits that cannot hold count
// values: every group of eight carries at least its tag vector. It is the
// check to make on an untrusted count before allocating count floats.
func CheckStreamBits(count, bits int) error {
	if count < 0 || bits < 0 || int64(bits) < (int64(count)+GroupSize-1)/GroupSize*TagVectorBits {
		return fmt.Errorf("fpcodec: %d bits cannot hold %d values: %w", bits, count, bitio.ErrShortRead)
	}
	return nil
}

// DecodeGroups decodes len(dst) values from the burst groups that start at
// bit pos of data, of which the first limit bits are the stream. It returns
// the bit position after the last group. A stream that ends inside a group
// is a bitio.ErrShortRead; no lane is read past limit. In a final partial
// group only the tags of the first len(dst)%8 lanes are honoured, whatever
// the encoder put in the rest of the tag vector.
func DecodeGroups(dst []float32, data []byte, pos, limit int, b Bound) (int, error) {
	if pos < 0 || pos > limit || limit > 8*len(data) {
		return pos, fmt.Errorf("fpcodec: bits [%d,%d) declared in %d bytes", pos, limit, len(data))
	}
	if err := CheckStreamBits(len(dst), limit-pos); err != nil {
		return pos, err
	}
	// Tag vectors and lanes are whole bytes, so the cursor is a byte index
	// and every load is shifted by the same sub-byte phase.
	p, phase := pos>>3, uint(pos)&7
	lim := (limit - int(phase)) >> 3 // whole bytes of stream at that phase
	n, p := decodeStream(dst, data, p, lim, phase, b.e)
	if n < len(dst) && p > len(data)-loadReach {
		// The groups within reach of the end of data run on a padded copy.
		var tail [2 * loadReach]byte
		skip := p
		copy(tail[:], data[skip:])
		var m int
		m, p = decodeStream(dst[n:], tail[:], 0, lim-skip, phase, b.e)
		n, p = n+m, p+skip
	}
	if n < len(dst) {
		return p<<3 + int(phase), fmt.Errorf("fpcodec: group at value %d: %w", n, bitio.ErrShortRead)
	}
	return p<<3 + int(phase), nil
}

// decodeStream runs decodeGroups over the whole groups of dst and then over
// its final partial group, which decodes whole — the tags of the lanes it
// lacks cleared — and hands over only the lanes it has.
func decodeStream(dst []float32, data []byte, p, lim int, phase uint, e int) (int, int) {
	whole := len(dst) &^ (GroupSize - 1)
	n, p := decodeGroups(dst[:whole], data, p, lim, phase, 1<<TagVectorBits-1, e)
	if n == whole && whole < len(dst) {
		var last [GroupSize]float32
		var m int
		m, p = decodeGroups(last[:], data, p, lim, phase, 1<<(2*uint(len(dst)-whole))-1, e)
		n += copy(dst[whole:], last[:m])
	}
	return n, p
}

// loadReach is how far past a group's first byte its lane loads can touch.
const loadReach = maxGroupBytes + laneLoad

// decodeGroups decodes whole groups from byte p of data, each load shifted
// down by phase bits and each tag vector masked by keep, into dst. It stops
// when dst is full, when a whole group's loads would no longer stay inside
// data, or at a group that does not end within lim bytes, and returns how
// many values it produced and the byte position it stopped at. The AVX2
// lanes take the groups they can first (kernel_amd64.go); this loop is the
// reference, and the kernel elsewhere.
func decodeGroups(dst []float32, data []byte, p, lim int, phase uint, keep uint32, e int) (int, int) {
	n, p := decodeLanes(dst, data, p, lim, phase, keep, e)
	dec := &kernelTables[e].dec
	for ; len(dst)-n >= GroupSize && p <= len(data)-loadReach; n += GroupSize {
		tags := uint32(binary.LittleEndian.Uint64(data[p:])>>(phase&63)) & keep
		if p+TagVectorBits/8+int(laneBytes[uint8(tags)])+int(laneBytes[uint8(tags>>8)]) > lim {
			break
		}
		p += TagVectorBits / 8
		g := (*[GroupSize]float32)(dst[n:])
		for i := range g {
			r := &dec[tags&0b11]
			tags >>= 2
			g[i] = math.Float32frombits(r.lane(uint32(binary.LittleEndian.Uint64(data[p:]) >> (phase & 63))))
			p += int(r.bytes)
		}
	}
	return n, p
}

// appendBytes appends the whole bytes of part to the nbit-bit stream in buf
// and returns the storage and the new bit length.
func appendBytes(buf []byte, nbit int, part []byte) ([]byte, int) {
	buf = append(buf[:(nbit+7)>>3], part...)
	nbit = closeGap(buf, nbit)
	return buf[:(nbit+7)>>3], nbit
}
