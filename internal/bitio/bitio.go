// Package bitio provides bit-granular writers and readers used by the
// compression codecs in this repository.
//
// Bits are packed LSB-first within each byte: the first bit written becomes
// bit 0 of byte 0. This matches the hardware alignment units modelled in
// internal/nic, where variable-size compressed vectors are concatenated into
// 256-bit bursts with the earliest vector occupying the least significant
// positions.
package bitio

import (
	"errors"
	"fmt"
)

// ErrShortRead is returned by Reader methods when fewer bits remain in the
// underlying buffer than were requested.
var ErrShortRead = errors.New("bitio: not enough bits")

// Writer accumulates bits LSB-first into a growing byte slice.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total number of bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the width least significant bits of v, LSB first.
// Width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	for width > 0 {
		bitPos := w.nbit & 7
		if bitPos == 0 {
			w.buf = append(w.buf, 0)
		}
		take := 8 - bitPos
		if take > width {
			take = width
		}
		w.buf[len(w.buf)-1] |= byte(v) << uint(bitPos)
		v >>= uint(take)
		w.nbit += take
		width -= take
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed bytes. Unused high bits of the final byte are
// zero. The returned slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset discards all written bits, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Lend hands the writer's storage to a bulk encoder that appends in place:
// the bytes holding the Len() bits written so far (spare high bits of the
// last one zero), with the writer's spare capacity behind them. The writer
// must not be used again until the encoder gives the storage back through
// Restore.
func (w *Writer) Lend() (buf []byte, nbit int) { return w.buf, w.nbit }

// Restore takes back storage handed out by Lend, now holding nbit bits in
// buf[:⌈nbit/8⌉] with the spare high bits of the last byte zero.
func (w *Writer) Restore(buf []byte, nbit int) {
	if nbit < 0 || len(buf) != (nbit+7)>>3 {
		panic(fmt.Sprintf("bitio: Restore of %d bits in %d bytes", nbit, len(buf)))
	}
	w.buf, w.nbit = buf, nbit
}

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int // bit position of the next read
	nbit int // total readable bits
}

// NewReader returns a Reader over buf exposing nbits bits. If nbits is
// negative, all 8*len(buf) bits are exposed.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 {
		nbits = 8 * len(buf)
	}
	if nbits > 8*len(buf) {
		panic(fmt.Sprintf("bitio: nbits %d exceeds buffer of %d bits", nbits, 8*len(buf)))
	}
	return &Reader{buf: buf, nbit: nbits}
}

// ReadBits consumes width bits and returns them in the least significant
// positions of the result. Width must be in [0, 64].
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortRead
	}
	var v uint64
	got := 0
	for got < width {
		bytePos := r.pos >> 3
		bitPos := r.pos & 7
		take := 8 - bitPos
		if take > width-got {
			take = width - got
		}
		chunk := uint64(r.buf[bytePos]>>uint(bitPos)) & ((1 << uint(take)) - 1)
		v |= chunk << uint(got)
		got += take
		r.pos += take
	}
	return v, nil
}

// ReadBit consumes a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Lend exposes the reader's window to a bulk decoder: the buffer, the bit
// position of the next read, and the bit limit. The decoder reports what it
// consumed through Skip.
func (r *Reader) Lend() (buf []byte, pos, nbit int) { return r.buf, r.pos, r.nbit }

// Skip advances past n bits.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.pos+n > r.nbit {
		return ErrShortRead
	}
	r.pos += n
	return nil
}
