package nic

import (
	"fmt"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fpcodec"
)

// BurstDecompressor is the cycle-faithful model of the Decompression
// Engine's front end (paper Fig. 10): input arrives as 256-bit bursts; a
// Burst Buffer holds up to two bursts (512 bits) because one compressed
// group (16-bit tag vector + 0–256 data bits, i.e. 16–272 bits) can
// straddle a burst boundary. Each cycle in which the buffer holds enough
// bits for the next group, the Tag Decoder computes the eight lane sizes,
// the eight DBs emit one 256-bit output burst, and the consumed bits are
// shifted away; otherwise the engine stalls for one cycle to refill.
//
// Its output is bit-exact with fpcodec.DecodeGroups, and a stream that
// runs out fails at the same bit (FuzzBurstDecompressor); what it adds
// over DecompressionEngine is the cycle-level buffer-occupancy behaviour.
type BurstDecompressor struct {
	Bound fpcodec.Bound

	// Burst Buffer: up to 512 bits, LSB-first like the wire format.
	buf  [8]uint64 // bit i of the buffer = buf[i/64]>>(i%64)&1
	fill int       // occupied bits

	input    []byte // compressed stream
	inputPos int    // next unread bit
	inputEnd int    // total stream bits

	cycles int64
	stalls int64
}

// NewBurstDecompressor returns a decompressor for one packet payload of
// `bits` compressed bits.
func NewBurstDecompressor(bound fpcodec.Bound, data []byte, bits int) *BurstDecompressor {
	if bits > 8*len(data) {
		panic(fmt.Sprintf("nic: %d bits declared in %d bytes", bits, len(data)))
	}
	return &BurstDecompressor{Bound: bound, input: data, inputEnd: bits}
}

// Cycles returns the consumed engine cycles (including stalls).
func (d *BurstDecompressor) Cycles() int64 { return d.cycles }

// Stalls returns the cycles spent refilling the Burst Buffer.
func (d *BurstDecompressor) Stalls() int64 { return d.stalls }

// refill moves up to one burst (256 bits) from the input into the buffer.
func (d *BurstDecompressor) refill() {
	take := BurstBits
	if remain := d.inputEnd - d.inputPos; take > remain {
		take = remain
	}
	if room := 512 - d.fill; take > room {
		take = room
	}
	for i := 0; i < take; i++ {
		src := d.inputPos + i
		bit := uint64(d.input[src/8]>>(uint(src)%8)) & 1
		pos := d.fill + i
		d.buf[pos/64] |= bit << (uint(pos) % 64)
	}
	d.inputPos += take
	d.fill += take
}

// peekBits reads w bits at offset off from the buffer without consuming.
func (d *BurstDecompressor) peekBits(off, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		pos := off + i
		bit := d.buf[pos/64] >> (uint(pos) % 64) & 1
		v |= bit << uint(i)
	}
	return v
}

// consume shifts n bits out of the buffer.
func (d *BurstDecompressor) consume(n int) {
	rest := d.fill - n
	var next [8]uint64
	for i := 0; i < rest; i++ {
		src := n + i
		bit := d.buf[src/64] >> (uint(src) % 64) & 1
		next[i/64] |= bit << (uint(i) % 64)
	}
	d.buf = next
	d.fill = rest
}

// groupBits returns the size of the group at the buffer head, its tag
// vector and the data of its first lanes lanes, or -1 if the tag vector
// itself is not yet complete. A final partial group's other lanes carry no
// data, whatever their tags say: the encoder pads them with TagZero.
func (d *BurstDecompressor) groupBits(lanes int) int {
	if d.fill < fpcodec.TagVectorBits {
		return -1
	}
	tags := d.peekBits(0, fpcodec.TagVectorBits)
	total := fpcodec.TagVectorBits
	for lane := 0; lane < lanes; lane++ {
		tag := fpcodec.Tag(tags >> uint(2*lane) & 0b11)
		total += tag.Bits()
	}
	return total
}

// NextGroup decodes the next burst group into dst (up to 8 lanes),
// advancing the cycle counters: one cycle per refill attempt while
// stalled, one cycle to emit. Returns the number of lanes produced, or a
// bitio.ErrShortRead if the stream is exhausted mid-group.
func (d *BurstDecompressor) NextGroup(dst []float32) (int, error) {
	if len(dst) == 0 || len(dst) > fpcodec.GroupSize {
		panic(fmt.Sprintf("nic: group of %d lanes", len(dst)))
	}
	for {
		need := d.groupBits(len(dst))
		if need >= 0 && d.fill >= need {
			break
		}
		if d.inputPos >= d.inputEnd {
			return 0, fmt.Errorf("nic: compressed stream exhausted mid-group (have %d bits): %w", d.fill, bitio.ErrShortRead)
		}
		d.refill()
		d.cycles++
		d.stalls++
	}
	tags := d.peekBits(0, fpcodec.TagVectorBits)
	off := fpcodec.TagVectorBits
	for lane := 0; lane < len(dst); lane++ {
		tag := fpcodec.Tag(tags >> uint(2*lane) & 0b11)
		v := d.peekBits(off, tag.Bits())
		off += tag.Bits()
		dst[lane] = fpcodec.Decompress(uint32(v), tag, d.Bound)
	}
	d.consume(d.groupBits(len(dst)))
	d.cycles++
	return len(dst), nil
}

// DecompressAll decodes count values, mirroring DecompressionEngine but
// with the explicit Burst Buffer model. On an error it returns the values
// of the groups before the one that failed.
func (d *BurstDecompressor) DecompressAll(count int) ([]float32, error) {
	if err := fpcodec.CheckStreamBits(count, d.inputEnd-d.inputPos); err != nil {
		return nil, err
	}
	out := make([]float32, count)
	for off := 0; off < count; off += fpcodec.GroupSize {
		hi := off + fpcodec.GroupSize
		if hi > count {
			hi = count
		}
		if _, err := d.NextGroup(out[off:hi]); err != nil {
			return out[:off], err
		}
	}
	return out, nil
}
