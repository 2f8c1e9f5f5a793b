// Package frame is the one byte discipline under every format this
// repository reads or writes: tcpfabric's INCP data frames, train's INCK
// checkpoints, inccompress's INCF containers and the nic packet model. It
// owns four decisions: fields are little-endian; a float32 travels as its
// IEEE-754 bit pattern; integrity is CRC32-C (Castagnoli); and a length read
// from outside never sizes an allocation the source has not been shown to
// back. The formats themselves — magics, field order, limits — stay with
// their owners; this package imports nothing from the module.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunk is how far a declared length may run ahead of the bytes behind it on
// a source that cannot say how much it holds, and the unit floats are
// converted in, so no float vector needs a byte copy of its own size.
const chunk = 64 << 10

// Checksum returns the CRC32-C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumF32s returns the CRC32-C of the wire encoding of vals.
func ChecksumF32s(vals []float32) uint32 {
	var buf [1024]byte
	var crc uint32
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		PutF32s(buf[:], vals[:n])
		crc = crc32.Update(crc, castagnoli, buf[:4*n])
		vals = vals[n:]
	}
	return crc
}

// PutF32s encodes vals into dst[:4*len(vals)]. The loop moves four values
// per trip through full-slice-expression windows of known length, so each
// trip pays one bounds check instead of eight; a scalar tail takes the rest.
func PutF32s(dst []byte, vals []float32) {
	_ = dst[:4*len(vals)]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v := vals[i : i+4 : i+4]
		d := dst[4*i : 4*i+16 : 4*i+16]
		binary.LittleEndian.PutUint32(d[0:], math.Float32bits(v[0]))
		binary.LittleEndian.PutUint32(d[4:], math.Float32bits(v[1]))
		binary.LittleEndian.PutUint32(d[8:], math.Float32bits(v[2]))
		binary.LittleEndian.PutUint32(d[12:], math.Float32bits(v[3]))
	}
	for ; i < len(vals); i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(vals[i]))
	}
}

// F32s decodes len(dst) values from src[:4*len(dst)], four per trip like
// PutF32s.
func F32s(dst []float32, src []byte) {
	_ = src[:4*len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[4*i : 4*i+16 : 4*i+16]
		d := dst[i : i+4 : i+4]
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// AppendF32s appends the encoding of vals to dst. Where the size is known
// up front, make + PutF32s is the faster spelling (it skips the zero fill).
func AppendF32s(dst []byte, vals []float32) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, 4*len(vals))...)
	PutF32s(dst[n:], vals)
	return dst
}

// AppendU32 appends one u32 field to b.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// Reader is a cursor over bytes this process did not write. The first
// error sticks — every later read returns zero values and consumes nothing —
// so a decoder is a straight-line field list with one Err check at its end.
// It keeps a running CRC32-C of what it consumed, for Verify.
type Reader struct {
	src  io.Reader
	left int64 // bytes src can still supply; -1 when it cannot say
	n    int64 // bytes consumed
	crc  uint32
	err  error
	fix  [8]byte
	buf  []byte // float conversion scratch, at most one chunk
}

// NewReader returns a Reader over src. A source that can say how much it
// holds — anything with a Len method (bytes.Reader, bytes.Buffer) or a
// regular file — has every length checked against that before anything is
// allocated; any other (a socket, a bufio.Reader) is read a chunk at a time.
func NewReader(src io.Reader) *Reader {
	r := &Reader{src: src, left: -1}
	switch s := src.(type) {
	case interface{ Len() int }:
		r.left = int64(s.Len())
	case interface {
		io.Seeker
		Stat() (fs.FileInfo, error)
	}:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := s.Seek(0, io.SeekCurrent); err == nil {
				r.left = max(fi.Size()-pos, 0)
			}
		}
	}
	return r
}

// Err returns the first error the Reader met, if any.
func (r *Reader) Err() error { return r.err }

// Fail makes err the Reader's error unless it already has one, so a
// caller's own validation joins the same flow as a short read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// fill reads exactly len(p) bytes. A clean io.EOF before the Reader's
// first byte stays io.EOF — the stream ended on a frame boundary; one
// after it is a torn frame, io.ErrUnexpectedEOF.
func (r *Reader) fill(p []byte) bool {
	if r.err != nil {
		return false
	}
	m, err := io.ReadFull(r.src, p)
	r.n += int64(m)
	if err != nil {
		if err == io.EOF && r.n > 0 {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return false
	}
	if r.left >= 0 {
		r.left -= int64(m)
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	return true
}

func (r *Reader) fixed(n int) []byte {
	if !r.fill(r.fix[:n]) {
		r.fix = [8]byte{}
	}
	return r.fix[:n]
}

// U32 and U64 read one fixed-width field.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// backs reports whether n items of size bytes may be read: a sized source
// must hold all of a declared length before any of it is allocated.
func (r *Reader) backs(n, size int) bool {
	if r.err == nil && (n < 0 || r.left >= 0 && int64(n) > r.left/int64(size)) {
		r.err = fmt.Errorf("frame: declared length %d×%dB exceeds the %d bytes behind it: %w", n, size, r.left, io.ErrUnexpectedEOF)
	}
	return r.err == nil
}

// upfront is how much of an n-item result to allocate before reading: all of
// it once a sized source has been shown to hold it, else at most per items.
func (r *Reader) upfront(n, per int) int {
	if r.left < 0 {
		return min(n, per)
	}
	return n
}

// F32s reads n float32 values (never nil on success, so an empty vector
// stays distinct from an absent one); n is the caller's: it has read n in
// its own format and checked it against its own limit.
func (r *Reader) F32s(n int) []float32 {
	if !r.backs(n, 4) {
		return nil
	}
	if want := 4 * min(n, chunk/4); cap(r.buf) < want {
		r.buf = make([]byte, want)
	}
	out := make([]float32, r.upfront(n, chunk/4))
	for done := 0; done < n; {
		m := min(n-done, chunk/4)
		if !r.fill(r.buf[:4*m]) {
			return nil
		}
		if done+m > len(out) {
			out = append(out, make([]float32, done+m-len(out))...)
		}
		F32s(out[done:done+m], r.buf)
		done += m
	}
	return out
}

// Verify reads the trailing u32 of a checksummed format and fails the
// Reader unless it is the CRC32-C of everything consumed before it.
func (r *Reader) Verify() {
	sum := r.crc
	if stored := r.U32(); r.err == nil && stored != sum {
		r.err = fmt.Errorf("frame: CRC32-C mismatch (stored %08x, computed %08x): corrupt or truncated", stored, sum)
	}
}

// Writer is the mirror image of Reader: a sticky-error field writer that
// keeps a running CRC32-C of everything written.
type Writer struct {
	dst io.Writer
	crc uint32
	err error
	fix [8]byte
	buf []byte // float conversion scratch, at most one chunk
}

// NewWriter returns a Writer onto dst. It does not buffer: hand it a
// bufio.Writer where the fields are small, and flush that.
func NewWriter(dst io.Writer) *Writer { return &Writer{dst: dst} }

// Err returns the first error the Writer met, if any.
func (w *Writer) Err() error { return w.err }

// Bytes writes p as it is.
func (w *Writer) Bytes(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.dst.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p)
}

// U32 and U64 write one fixed-width field.
func (w *Writer) U32(v uint32) { w.Bytes(binary.LittleEndian.AppendUint32(w.fix[:0], v)) }
func (w *Writer) U64(v uint64) { w.Bytes(binary.LittleEndian.AppendUint64(w.fix[:0], v)) }

// F32s writes vals with no length prefix (the count's width is the
// format's), a chunk at a time.
func (w *Writer) F32s(vals []float32) {
	if want := 4 * min(len(vals), chunk/4); cap(w.buf) < want {
		w.buf = make([]byte, want)
	}
	for len(vals) > 0 && w.err == nil {
		m := min(len(vals), chunk/4)
		PutF32s(w.buf, vals[:m])
		w.Bytes(w.buf[:4*m])
		vals = vals[m:]
	}
}

// Sum appends the CRC32-C of everything written before it.
func (w *Writer) Sum() { w.U32(w.crc) }
