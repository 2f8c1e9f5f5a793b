package train

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"inceptionn/internal/frame"
)

// goldenCheckpoint is the fixed input behind testdata/golden_ckpt.inck,
// which the commit before internal/frame existed wrote from it and which
// must never be regenerated from current code. Four members; member 0's
// residual is nil and member 3's empty (both stored as length 0 and absent
// after a decode), the others non-empty.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		Universe: 5, Epoch: 2, NextIter: 17, Members: []int{0, 1, 3, 4},
		Weights:  []float32{1.5, -2.25, 0, float32(math.Inf(1)), math.Float32frombits(0x80000000), math.Float32frombits(1), 3.0517578e-05},
		Velocity: []float32{-0.001, 0.002, 1e-9},
		Cursors:  map[int]uint64{0: 17, 1: 18, 3: 1 << 40, 4: 0},
		Residuals: map[int][]float32{
			0: nil, 1: {0.5, -0.5}, 3: {}, 4: {0.125, 0.25, -0.375},
		},
	}
}

func encodeCheckpoint(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func bitsOf(vals []float32) []uint32 {
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestCheckpointGoldenBytes: Encode reproduces the parent commit's file
// byte for byte and DecodeCheckpoint parses it to the parent's values.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_ckpt.inck")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenCheckpoint()
	if got := encodeCheckpoint(t, want); !bytes.Equal(got, golden) {
		t.Fatalf("Encode wrote % x\nwant         % x", got, golden)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if got.Universe != 5 || got.Epoch != 2 || got.NextIter != 17 || !reflect.DeepEqual(got.Members, want.Members) || !reflect.DeepEqual(got.Cursors, want.Cursors) {
		t.Errorf("header decoded to %+v", got)
	}
	if !reflect.DeepEqual(bitsOf(got.Weights), bitsOf(want.Weights)) || !reflect.DeepEqual(bitsOf(got.Velocity), bitsOf(want.Velocity)) {
		t.Errorf("vectors decoded to %v / %v", got.Weights, got.Velocity)
	}
	if !reflect.DeepEqual(got.Residuals, map[int][]float32{1: {0.5, -0.5}, 4: {0.125, 0.25, -0.375}}) {
		t.Errorf("residuals decoded to %v", got.Residuals)
	}
}

// hostileCheckpoint is a well-formed 36-byte header — no members — whose
// weights vector claims maxCkptVector values and then ends.
func hostileCheckpoint() []byte {
	b := frame.AppendU32(frame.AppendU32(nil, runCkptMagic), runCkptVersion)
	b = frame.AppendU32(frame.AppendU32(b, 4), 0)                     // universe, epoch
	b = frame.AppendU32(binary.LittleEndian.AppendUint64(b, 9), 0)    // next iteration, member count
	return binary.LittleEndian.AppendUint64(b, uint64(maxCkptVector)) // weights length
}

func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointLengthDoesNotAllocate: a length off the disk is not an
// allocation. Before internal/frame the 36-byte file cost 1 GiB. The
// decoder must refuse it cheaply from a buffer, from a source that cannot
// say how much it holds, and from a file.
func TestCheckpointLengthDoesNotAllocate(t *testing.T) {
	hostile := hostileCheckpoint()
	if len(hostile) != 36 {
		t.Fatalf("hostile checkpoint is %d bytes, want 36", len(hostile))
	}
	path := filepath.Join(t.TempDir(), "hostile.inck")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, src := range map[string]io.Reader{
		"sized":   bytes.NewReader(hostile),
		"unsized": io.MultiReader(bytes.NewReader(hostile)),
		"file":    file,
	} {
		var err error
		if grew := allocDuring(func() { _, err = DecodeCheckpoint(src) }); err == nil || grew > 1<<20 {
			t.Errorf("%s source: err %v, %d bytes allocated", name, err, grew)
		}
	}
}

// checkDecodeCheckpoint is the contract of the checkpoint reader on bytes it
// did not write: no input panics; what it allocates is bounded by the
// input, not by a length inside it; a sized and an unsized source agree;
// and whatever decodes re-encodes to the bytes it was read from.
func checkDecodeCheckpoint(t *testing.T, in []byte) {
	var sized, unsized *Checkpoint
	var sizedErr, unsizedErr error
	const slack = 256 << 10
	if grew := allocDuring(func() { sized, sizedErr = DecodeCheckpoint(bytes.NewReader(in)) }); grew > 4*uint64(len(in))+slack {
		t.Fatalf("sized source: %d bytes allocated on %d input bytes", grew, len(in))
	}
	if grew := allocDuring(func() { unsized, unsizedErr = DecodeCheckpoint(io.MultiReader(bytes.NewReader(in))) }); grew > 8*uint64(len(in))+slack {
		t.Fatalf("unsized source: %d bytes allocated on %d input bytes", grew, len(in))
	}
	if (sizedErr == nil) != (unsizedErr == nil) {
		t.Fatalf("sized source says %v, unsized %v", sizedErr, unsizedErr)
	}
	if sizedErr != nil {
		return
	}
	out := encodeCheckpoint(t, sized)
	if !bytes.Equal(out, encodeCheckpoint(t, unsized)) {
		t.Fatalf("sized source decoded %+v, unsized %+v", sized, unsized)
	}
	// A member listed twice keeps one cursor and one residual, so only a
	// checkpoint with distinct members has a unique encoding.
	if len(sized.Cursors) == len(sized.Members) && !bytes.Equal(out, in[:len(out)]) {
		t.Fatalf("re-encoded checkpoint differs:\n got % x\nwant % x", out, in[:len(out)])
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	golden := encodeCheckpoint(f, goldenCheckpoint())
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(golden[:40])
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(hostileCheckpoint())
	f.Add(encodeCheckpoint(f, &Checkpoint{}))
	f.Add(encodeCheckpoint(f, &Checkpoint{Universe: 2, Members: []int{1, 1}, Cursors: map[int]uint64{1: 3}}))
	f.Add([]byte{})
	f.Add([]byte{0x4B})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(checkDecodeCheckpoint)
}
