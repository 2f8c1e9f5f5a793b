package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// record is a format with one field of every kind the Reader decodes, in
// the shape the real formats use: fixed fields, a u32-counted blob (read by
// Reader.Bytes below, which no real format needs), a u32-counted float
// vector and a trailing checksum.
type record struct {
	a    uint32
	b    uint64
	blob []byte
	vec  []float32
}

func (rec record) encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(rec.a)
	w.U64(rec.b)
	w.U32(uint32(len(rec.blob)))
	w.Bytes(rec.blob)
	w.U32(uint32(len(rec.vec)))
	w.F32s(rec.vec)
	w.Sum()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeRecord(src io.Reader) (record, error) {
	r := NewReader(src)
	rec := record{a: r.U32(), b: r.U64()}
	rec.blob = r.Bytes(int(r.U32()))
	rec.vec = r.F32s(int(r.U32()))
	r.Verify()
	return rec, r.Err()
}

func sameRecord(x, y record) bool {
	if x.a != y.a || x.b != y.b || !bytes.Equal(x.blob, y.blob) || len(x.vec) != len(y.vec) {
		return false
	}
	for i := range x.vec {
		if math.Float32bits(x.vec[i]) != math.Float32bits(y.vec[i]) {
			return false
		}
	}
	return true
}

func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func filled(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

func ramp(n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)*0.25 - 3
	}
	return vals
}

// TestReaderEdges runs the edge inputs through the Reader behind a sized
// source (bytes.Reader) and an unsized one (the same bytes behind
// io.MultiReader) and re-checks the package's invariants after every
// decode: the two sources agree on the values and on error / no error;
// what is allocated is bounded by the bytes that were really there, never
// by a length they declare; and whatever decodes re-encodes to its input.
func TestReaderEdges(t *testing.T) {
	valid := record{a: 0xDEADBEEF, b: 1 << 40, blob: []byte{1, 2, 3}, vec: []float32{1.5, -2.25, 0}}
	onePast := valid.encode(t)
	onePast = onePast[:len(onePast)-1]
	// The blob's length field sits after a and b.
	lenAt := 4 + 8
	hugeBlob := valid.encode(t)
	binary.LittleEndian.PutUint32(hugeBlob[lenAt:], 1<<30)
	hugeVec := valid.encode(t)
	binary.LittleEndian.PutUint32(hugeVec[lenAt+4+len(valid.blob):], 1<<28)
	flipped := valid.encode(t)
	flipped[3] ^= 0x10

	type edge struct {
		name string
		in   []byte
		ok   bool
	}
	cases := []edge{
		{"empty", nil, false},
		{"one byte", []byte{0}, false},
		{"all zeros", filled(64, 0), false}, // four zero fields, but their CRC32-C is not zero
		{"all ones", filled(64, 0xFF), false},
		{"valid", valid.encode(t), true},
		{"one byte short", onePast, false},
		{"blob length far past the source", hugeBlob, false},
		{"vector length far past the source", hugeVec, false},
		{"bit flip", flipped, false},
	}
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 5} {
		cases = append(cases,
			edge{"blob of " + strconv.Itoa(n), record{blob: filled(n, 0xA5)}.encode(t), true},
			edge{"vector of " + strconv.Itoa(n/4), record{vec: ramp(n / 4)}.encode(t), true})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sized, unsized record
			var sizedErr, unsizedErr error
			// The sized source is shown to hold every length before it is
			// allocated, so the result costs at most the input; the unsized
			// one grows by append, a small multiple of what has arrived.
			// Both pay one chunk of conversion scratch and one of headroom.
			const slack = 2*chunk + 16<<10
			if grew := allocDuring(func() { sized, sizedErr = decodeRecord(bytes.NewReader(tc.in)) }); grew > uint64(len(tc.in))+slack {
				t.Errorf("sized source: %d input bytes, %d allocated", len(tc.in), grew)
			}
			if grew := allocDuring(func() { unsized, unsizedErr = decodeRecord(io.MultiReader(bytes.NewReader(tc.in))) }); grew > 4*uint64(len(tc.in))+slack {
				t.Errorf("unsized source: %d input bytes, %d allocated", len(tc.in), grew)
			}
			if (sizedErr == nil) != tc.ok || (unsizedErr == nil) != tc.ok {
				t.Fatalf("errors = %v (sized), %v (unsized); want success=%v", sizedErr, unsizedErr, tc.ok)
			}
			if !tc.ok {
				return
			}
			if !sameRecord(sized, unsized) {
				t.Fatalf("sized and unsized sources decoded different values")
			}
			if sized.blob == nil || sized.vec == nil {
				t.Errorf("a decoded empty field must stay distinct from an absent one: blob %v, vec %v", sized.blob, sized.vec)
			}
			if !bytes.Equal(sized.encode(t), tc.in) {
				t.Errorf("re-encoding the decoded record does not reproduce its %d input bytes", len(tc.in))
			}
		})
	}
}

// TestReaderErrors pins the error contract: io.EOF only on a frame
// boundary, the first error sticks, and a failed Reader consumes nothing.
func TestReaderErrors(t *testing.T) {
	if r := NewReader(bytes.NewReader(nil)); r.U32() != 0 || r.Err() != io.EOF {
		t.Errorf("empty source: %v, want io.EOF", r.Err())
	}
	for name, src := range map[string]io.Reader{
		"sized":   bytes.NewReader([]byte{1, 2, 3, 4, 5}),
		"unsized": io.MultiReader(bytes.NewReader([]byte{1, 2, 3, 4, 5})),
	} {
		r := NewReader(src)
		if got := r.U32(); got != 0x04030201 || r.Err() != nil {
			t.Fatalf("%s: U32 = %#x, %v", name, got, r.Err())
		}
		if got := r.U32(); got != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Errorf("%s: torn field = %#x, %v; want 0, io.ErrUnexpectedEOF", name, got, r.Err())
		}
	}

	src := bytes.NewReader(filled(32, 9))
	r := NewReader(src)
	mine := errors.New("caller's own validation")
	r.U32()
	r.Fail(mine)
	r.Fail(errors.New("a later one"))
	if r.U32() != 0 || r.U64() != 0 || r.Bytes(4) != nil || r.F32s(2) != nil {
		t.Error("a failed Reader returned a non-zero value")
	}
	r.Verify()
	if r.Err() != mine || src.Len() != 28 {
		t.Errorf("after Fail: err %v with %d bytes left; want the first error and 28", r.Err(), src.Len())
	}
	if r := NewReader(bytes.NewReader(filled(8, 0))); r.Bytes(-1) != nil || r.Err() == nil {
		t.Error("negative length accepted")
	}
}

// TestReaderSizesAFile: a regular file is a sized source, measured from the
// current offset, so a length past its end is refused before allocating.
func TestReaderSizesAFile(t *testing.T) {
	vec := ramp(1000)
	body := AppendF32s(AppendU32([]byte("skip"), uint32(len(vec))), vec)
	path := filepath.Join(t.TempDir(), "vec")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	r := NewReader(f)
	if r.left != int64(len(body)-4) {
		t.Fatalf("file of %d bytes at offset 4: left = %d", len(body), r.left)
	}
	if got := r.F32s(int(r.U32())); r.Err() != nil || len(got) != len(vec) || got[999] != vec[999] {
		t.Fatalf("decoded %d values, %v", len(got), r.Err())
	}
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	r = NewReader(f)
	r.U32()
	if grew := allocDuring(func() { r.F32s(1 << 28) }); r.Err() == nil || grew > 64<<10 {
		t.Fatalf("1 GiB vector declared in a 4 KB file: err %v, %d bytes allocated", r.Err(), grew)
	}
}

// TestFloatAndChecksumHelpers ties the slice helpers to an independent
// spelling of the two decisions they own.
func TestFloatAndChecksumHelpers(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum is not CRC32-C: check value %#08x, want 0xE3069283", got)
	}
	vals := append(ramp(700), float32(math.Inf(-1)), math.Float32frombits(0x7FC00001), math.Float32frombits(1))
	want := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		bits := math.Float32bits(v)
		want = append(want, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	put := make([]byte, 4*len(vals))
	PutF32s(put, vals)
	if !bytes.Equal(put, want) || !bytes.Equal(AppendF32s([]byte{0xEE}, vals)[1:], want) {
		t.Fatal("PutF32s / AppendF32s are not little-endian IEEE-754 bit patterns")
	}
	back := make([]float32, len(vals))
	F32s(back, want)
	for i := range vals {
		if math.Float32bits(back[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value %d: %#08x, want %#08x", i, math.Float32bits(back[i]), math.Float32bits(vals[i]))
		}
	}
	// The 4-wide kernels against the scalar loops, at every length that
	// exercises a different tail and at one HDC ring block, over the bit
	// patterns a float conversion could disturb: NaN payloads (quiet and
	// signalling, both signs), ±0, ±Inf, subnormals and the normal extremes.
	// Guard bytes and values past the window must survive untouched.
	for _, n := range append(seq(68), 287253) {
		in := make([]float32, n)
		for i := range in {
			if i%3 == 2 {
				in[i] = float32(i)*0.25 - 3
			} else {
				in[i] = math.Float32frombits(edgeBits[(i+n)%len(edgeBits)])
			}
		}
		enc := filled(4*n+5, 0xA5)
		PutF32s(enc, in)
		ref := filled(4*n+5, 0xA5)
		refPutF32s(ref, in)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("n=%d: PutF32s differs from the scalar loop", n)
		}
		dec := make([]float32, n+3)
		for i := range dec {
			dec[i] = math.Float32frombits(0xDEADBEEF)
		}
		F32s(dec[:n], enc)
		for i := range dec {
			want := uint32(0xDEADBEEF)
			if i < n {
				want = math.Float32bits(in[i])
			}
			if got := math.Float32bits(dec[i]); got != want {
				t.Fatalf("n=%d value %d: F32s gave %#08x, want %#08x", n, i, got, want)
			}
		}
	}
	if ChecksumF32s(vals) != Checksum(want) || ChecksumF32s(nil) != Checksum(nil) {
		t.Fatal("ChecksumF32s differs from the checksum of the encoding")
	}
	if b := AppendU32([]byte{0xEE}, 0x04030201); !bytes.Equal(b, []byte{0xEE, 1, 2, 3, 4}) {
		t.Fatalf("AppendU32 wrote % x", b)
	}
}

// edgeBits are float32 bit patterns a conversion that went through the FPU
// (or a NaN-quieting move) would change.
var edgeBits = []uint32{
	0x7FC00000, 0x7FC00001, 0xFFC12345, // quiet NaNs with payloads
	0x7F800001, 0x7FA00000, 0xFF800003, // signalling NaNs
	0x00000000, 0x80000000, // ±0
	0x7F800000, 0xFF800000, // ±Inf
	0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF, // subnormals
	0x00800000, 0x7F7FFFFF, 0xFF7FFFFF, // smallest normal, ±max
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// refPutF32s and refF32s are the scalar loops the 4-wide kernels replaced,
// kept as their oracle.
func refPutF32s(dst []byte, vals []float32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func refF32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// FuzzF32sRoundtrip: bytes → F32s → PutF32s is the identity on every whole
// float the input holds, and F32s agrees bit for bit with the scalar loop.
func FuzzF32sRoundtrip(f *testing.F) {
	for _, bits := range edgeBits {
		f.Add(binary.LittleEndian.AppendUint32(nil, bits))
	}
	f.Add([]byte{})
	f.Add(filled(4*9+3, 0xFF))
	f.Add([]byte("\x01\x00\x80\x7f\x00\x00\xc0\x7f\x00\x00\x00\x80\x01\x00\x00\x00\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		got, want := make([]float32, n), make([]float32, n)
		F32s(got, data)
		refF32s(want, data)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("value %d of %d: F32s %#08x, scalar loop %#08x", i, n, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		back := make([]byte, 4*n)
		PutF32s(back, got)
		if !bytes.Equal(back, data[:4*n]) {
			t.Fatalf("%d floats: PutF32s(F32s(b)) != b", n)
		}
	})
}

// TestFrameOwnsTheBytes: this package is the module's only importer of
// hash/crc32 — the checksum polynomial is decided here and nowhere else —
// and it imports nothing from the module, so every format can sit on it.
func TestFrameOwnsTheBytes(t *testing.T) {
	root := filepath.Join("..", "..")
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		inFrame := filepath.Dir(path) == filepath.Join(root, "internal", "frame")
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "hash/crc32" && !inFrame:
				t.Errorf("%s imports hash/crc32: checksums go through internal/frame", path)
			case inFrame && (p == "inceptionn" || strings.HasPrefix(p, "inceptionn/")):
				t.Errorf("%s imports %s: frame must stay a leaf of this module", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("only %d source files found under %s", checked, root)
	}
}

// Bytes reads n raw bytes; the caller has read n in its own format and
// checked it against its own limit. On a sized source the result is
// allocated once; otherwise it grows as the bytes arrive.
func (r *Reader) Bytes(n int) []byte {
	if !r.backs(n, 1) {
		return nil
	}
	out := make([]byte, r.upfront(n, chunk))
	r.fill(out)
	for len(out) < n && r.err == nil {
		m := min(n-len(out), chunk)
		out = append(out, make([]byte, m)...)
		r.fill(out[len(out)-m:])
	}
	if r.err != nil {
		return nil
	}
	return out
}
