package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestLSBFirstPacking(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0b1011, 4) // bits 0..3
	w.WriteBits(0b0110, 4) // bits 4..7
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b0110_1011 {
		t.Fatalf("packed byte = %08b, want 01101011", got[0])
	}
}

func TestCrossByteBoundary(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0x5, 3)
	w.WriteBits(0x1FF, 9) // spans bytes
	w.WriteBits(0xABCD, 16)
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0x5 {
		t.Fatalf("first field = %#x, want 0x5", v)
	}
	if v, _ := r.ReadBits(9); v != 0x1FF {
		t.Fatalf("second field = %#x, want 0x1FF", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("third field = %#x, want 0xABCD", v)
	}
}

func TestZeroWidthWrite(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 0)
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("zero-width write changed state: len=%d bytes=%d", w.Len(), len(w.Bytes()))
	}
}

func TestFullWidth64(t *testing.T) {
	const v uint64 = 0xDEADBEEFCAFEBABE
	w := NewWriter(8)
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes(), w.Len())
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("roundtrip = %#x, want %#x", got, v)
	}
}

func TestMaskingOfHighBits(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0xFF, 3) // only low 3 bits should land
	r := NewReader(w.Bytes(), w.Len())
	v, _ := r.ReadBits(3)
	if v != 0x7 {
		t.Fatalf("masked value = %#x, want 0x7", v)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
}

func TestShortRead(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0b101, 3)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(4); err != ErrShortRead {
		t.Fatalf("err = %v, want ErrShortRead", err)
	}
	// A failed read must not consume bits.
	v, err := r.ReadBits(3)
	if err != nil || v != 0b101 {
		t.Fatalf("after failed read: v=%#b err=%v", v, err)
	}
}

func TestSkip(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0xAA, 8)
	w.WriteBits(0x3, 2)
	r := NewReader(w.Bytes(), w.Len())
	if err := r.Skip(8); err != nil {
		t.Fatal(err)
	}
	v, _ := r.ReadBits(2)
	if v != 0x3 {
		t.Fatalf("after skip = %#x, want 0x3", v)
	}
	if err := r.Skip(1); err != ErrShortRead {
		t.Fatalf("over-skip err = %v, want ErrShortRead", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after reset = %d", w.Len())
	}
	w.WriteBits(0x1, 1)
	if w.Bytes()[0] != 1 {
		t.Fatalf("byte after reset = %x, want 1", w.Bytes()[0])
	}
}

func TestReaderAllBitsDefault(t *testing.T) {
	r := NewReader([]byte{0xFF, 0x01}, -1)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
}

// TestQuickRoundtrip property: any sequence of variable-width fields written
// then read back yields the original values.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		widths := make([]int, count)
		values := make([]uint64, count)
		w := NewWriter(64)
		for i := range widths {
			widths[i] = rng.Intn(65)
			values[i] = rng.Uint64()
			if widths[i] < 64 {
				values[i] &= (1 << uint(widths[i])) - 1
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := range widths {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != values[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<18 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 17)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 17)
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(w.Bytes(), w.Len())
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 17 {
			r = NewReader(w.Bytes(), w.Len())
		}
		if _, err := r.ReadBits(17); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriterLendRestore: a bulk encoder that appends to lent storage hands
// back a writer that carries on where the encoder stopped, on the same
// backing array when the capacity sufficed.
func TestWriterLendRestore(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	buf, nbit := w.Lend()
	if nbit != 3 || len(buf) != 1 || cap(buf) != 16 || buf[0] != 0b101 {
		t.Fatalf("Lend = %x (cap %d), %d bits", buf, cap(buf), nbit)
	}
	buf[0] |= 0b11 << 3 // the encoder finishes the byte and adds one
	buf = append(buf, 0x07)
	w.Restore(buf, 13)
	w.WriteBits(0b110, 3)
	if w.Len() != 16 || !bytes.Equal(w.Bytes(), []byte{0b11101, 0xC7}) || &w.Bytes()[0] != &buf[0] {
		t.Fatalf("after Restore: %x, %d bits", w.Bytes(), w.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Restore accepted 13 bits in 3 bytes")
		}
	}()
	w.Restore(make([]byte, 3), 13)
}

// TestReaderLend: the window a bulk decoder sees is the reader's own, and
// Skip reports what the decoder consumed.
func TestReaderLend(t *testing.T) {
	data := []byte{0xBC, 0xFA, 0xDE}
	r := NewReader(data, 20)
	if _, err := r.ReadBits(12); err != nil {
		t.Fatal(err)
	}
	buf, pos, nbit := r.Lend()
	if &buf[0] != &data[0] || pos != 12 || nbit != 20 {
		t.Fatalf("Lend = %p, %d, %d", buf, pos, nbit)
	}
	if err := r.Skip(8); err != nil || r.Remaining() != 0 {
		t.Fatalf("after Skip: %v, %d bits left", err, r.Remaining())
	}
}

// TestWriterResetReuseRoundtrip pins the Reset contract every reused
// writer relies on: it must leave no residue from the previous stream
// (stale buffer bits OR'd into fresh ones).
func TestWriterResetReuseRoundtrip(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 61) // dirty the buffer with set bits
	w.Reset()
	w.WriteBits(0b1010, 4)
	w.WriteBits(0, 9)
	w.WriteBits(0x155, 9)
	fresh := NewWriter(8)
	fresh.WriteBits(0b1010, 4)
	fresh.WriteBits(0, 9)
	fresh.WriteBits(0x155, 9)
	if w.Len() != fresh.Len() || !bytes.Equal(w.Bytes(), fresh.Bytes()) {
		t.Fatalf("reused writer differs from fresh: %x (%d bits) vs %x (%d bits)",
			w.Bytes(), w.Len(), fresh.Bytes(), fresh.Len())
	}
	// And the reused buffer round-trips through a reader.
	r := NewReader(w.Bytes(), w.Len())
	for _, want := range []struct {
		v     uint64
		width int
	}{{0b1010, 4}, {0, 9}, {0x155, 9}} {
		got, err := r.ReadBits(want.width)
		if err != nil || got != want.v {
			t.Fatalf("ReadBits(%d) = %x, %v; want %x", want.width, got, err, want.v)
		}
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Pos returns the bit position of the next read.
func (r *Reader) Pos() int { return r.pos }
