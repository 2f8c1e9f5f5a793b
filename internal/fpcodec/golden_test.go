package fpcodec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"inceptionn/internal/bitio"
	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/nic"
)

// goldenVector is the fixed input of the golden wire bytes: every class
// under each of the paper's bounds and both signs of it, ±0, denormals, NaN,
// ±Inf, 1.0, −2.5, each class boundary (2^-E and 2^-s8 for E ∈ {6, 8, 10})
// with the value just below it, and a final partial group of three.
func goldenVector() []float32 {
	below := func(f float32) float32 { return math.Float32frombits(math.Float32bits(f) - 1) }
	p := func(e int) float32 { return float32(math.Ldexp(1, e)) }
	return []float32{
		// Zero class everywhere: ±0, denormals, tiny normals, just under 2^-10.
		0, float32(math.Copysign(0, -1)), 5e-39, -5e-39, 1e-30, p(-11), -p(-11), below(p(-10)),
		// The error bounds 2^-E.
		p(-10), -p(-10), p(-8), -p(-8), p(-6), -p(-6), below(p(-8)), below(p(-6)),
		// The 8/16-bit boundaries 2^-s8: 2^-3 (E=10), 2^-1 (E=8), 2^0 (E=6).
		p(-3), -p(-3), below(p(-3)), p(-1), -p(-1), below(p(-1)), 1.0, below(1.0),
		// Ordinary gradient magnitudes.
		0.001, -0.03, 0.1, -0.2, 0.3, -0.75, 0.99, -0.0009765626,
		// Verbatim class.
		-2.5, 1.5, math.Float32frombits(0x7FC00001), float32(math.Inf(1)), float32(math.Inf(-1)), 123456, -1.0, math.MaxFloat32,
		// Partial group.
		0.25, -0.6, 0.001,
	}
}

// golden is one checked-in testdata/golden_eN.hex: the stream's exact bit
// length, its bytes, and the Float32bits it decodes to. The files were
// generated from the bitio/CompressGroup codec at the commit before the
// group kernel replaced it, so they — not a second implementation — are
// what "the wire format did not change" is asserted against.
type golden struct {
	Bits    int
	Stream  []byte
	Decoded []uint32
}

func goldenPath(e int) string { return fmt.Sprintf("testdata/golden_e%d.hex", e) }

// readGolden parses one golden file: three whitespace-separated fields.
func readGolden(path string) (golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return golden{}, err
	}
	f := strings.Fields(string(raw))
	if len(f) != 3 {
		return golden{}, fmt.Errorf("%s: %d fields, want 3", path, len(f))
	}
	var g golden
	if g.Bits, err = strconv.Atoi(f[0]); err != nil {
		return golden{}, fmt.Errorf("%s: bit length: %w", path, err)
	}
	if g.Stream, err = hex.DecodeString(f[1]); err != nil {
		return golden{}, fmt.Errorf("%s: stream: %w", path, err)
	}
	dec, err := hex.DecodeString(f[2])
	if err != nil || len(dec)%4 != 0 {
		return golden{}, fmt.Errorf("%s: decoded values: %d bytes, %v", path, len(dec), err)
	}
	for ; len(dec) > 0; dec = dec[4:] {
		g.Decoded = append(g.Decoded, binary.BigEndian.Uint32(dec))
	}
	return g, nil
}

// TestGoldenWireBytes: under each of the paper's three bounds, the bytes,
// bit length and decoded bit patterns of goldenVector are the checked-in
// ones — out of the kernel, out of the nic compression engine, and framed
// in the packet NIC.Egress emits — on each kernel path.
func TestGoldenWireBytes(t *testing.T) { fpcodec.OnKernelPaths(t, testGoldenWireBytes) }

func testGoldenWireBytes(t *testing.T) {
	src := goldenVector()
	if len(src) != 43 {
		t.Fatalf("golden vector has %d values, want 43", len(src))
	}
	raw := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	for _, e := range []int{6, 8, 10} {
		bound := fpcodec.MustBound(e)
		want, err := readGolden(goldenPath(e))
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, stream []byte, bits int) {
			t.Helper()
			if bits != want.Bits || !bytes.Equal(stream, want.Stream) {
				t.Errorf("E=%d %s: stream is %d bits %x,\nwant %d bits %x", e, path, bits, stream, want.Bits, want.Stream)
			}
		}
		w := bitio.NewWriter(0)
		fpcodec.CompressStream(w, src, bound)
		check("CompressStream", w.Bytes(), w.Len())
		stream, bits := nic.NewCompressionEngine(bound).CompressPayload(src)
		check("CompressionEngine", stream, bits)
		pkts := nic.New(bound).Egress([]nic.Packet{{ToS: comm.ToSCompress, Payload: raw}})
		if p := pkts[0].Payload; len(pkts) != 1 || !pkts[0].Compressed || len(p) < 8 ||
			binary.LittleEndian.Uint32(p) != uint32(len(src)) {
			t.Errorf("E=%d: Egress did not emit one compressed frame of %d values", e, len(src))
		} else {
			check("NIC.Egress", p[8:], int(binary.LittleEndian.Uint32(p[4:])))
		}

		dst := make([]float32, len(src))
		if err := fpcodec.DecompressStream(bitio.NewReader(want.Stream, want.Bits), dst, bound); err != nil {
			t.Fatalf("E=%d: decoding the golden stream: %v", e, err)
		}
		for i, v := range dst {
			if math.Float32bits(v) != want.Decoded[i] {
				t.Errorf("E=%d: value %d (%g) decodes to %#08x, want %#08x", e, i, src[i], math.Float32bits(v), want.Decoded[i])
			}
		}
	}
}
