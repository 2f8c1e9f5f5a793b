package nic

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"inceptionn/internal/bitio"
	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
)

func gradientVector(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = float32(rng.NormFloat64()) // occasional large value
		default:
			out[i] = float32(rng.NormFloat64() * 0.002)
		}
	}
	return out
}

// TestEngineBitExactAgainstReferenceCodec: the hardware engine model and
// the software stream codec must produce identical bit streams — the
// central cross-check between the two independent implementations.
func TestEngineBitExactAgainstReferenceCodec(t *testing.T) {
	for _, e := range []int{6, 8, 10} {
		bound := fpcodec.MustBound(e)
		for _, n := range []int{1, 7, 8, 9, 64, 1000} {
			payload := gradientVector(n, int64(e*1000+n))
			ce := NewCompressionEngine(bound)
			data, bits := ce.CompressPayload(payload)

			w := bitio.NewWriter(4 * n)
			fpcodec.CompressStream(w, payload, bound)
			if bits != w.Len() {
				t.Fatalf("E=%d n=%d: engine %d bits, codec %d bits", e, n, bits, w.Len())
			}
			ref := w.Bytes()
			for i := range ref {
				if data[i] != ref[i] {
					t.Fatalf("E=%d n=%d: byte %d differs: %02x vs %02x", e, n, i, data[i], ref[i])
				}
			}
		}
	}
}

func TestEngineRoundtrip(t *testing.T) {
	bound := fpcodec.MustBound(10)
	payload := gradientVector(1000, 1)
	ce := NewCompressionEngine(bound)
	data, bits := ce.CompressPayload(payload)
	de := NewDecompressionEngine(bound)
	out, err := de.DecompressPayload(data, bits, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		want := fpcodec.Roundtrip(payload[i], bound)
		if out[i] != want {
			t.Fatalf("value %d: engine %g, codec roundtrip %g", i, out[i], want)
		}
	}
}

func TestEngineCycleAccounting(t *testing.T) {
	bound := fpcodec.MustBound(10)
	ce := NewCompressionEngine(bound)
	ce.CompressPayload(make([]float32, 64)) // 8 bursts
	if ce.Cycles() != 8 {
		t.Errorf("compress cycles = %d, want 8", ce.Cycles())
	}
	ce.CompressPayload(make([]float32, 65)) // 9 bursts (one partial)
	if ce.Cycles() != 17 {
		t.Errorf("cumulative cycles = %d, want 17", ce.Cycles())
	}
	if CompressionCycles(65) != 9 {
		t.Errorf("CompressionCycles(65) = %d", CompressionCycles(65))
	}
	if got := EngineSeconds(ClockHz); got != 1.0 {
		t.Errorf("EngineSeconds(1s of cycles) = %g", got)
	}
}

// TestEngineThroughputMatchesLineRate: 8 floats (256 bits) per 100 MHz
// cycle is 25.6 Gb/s of uncompressed input — comfortably above the 10 GbE
// line rate, the paper's requirement that the engines never throttle the
// NIC.
func TestEngineThroughputMatchesLineRate(t *testing.T) {
	const floats = 1_000_000
	cycles := CompressionCycles(floats)
	seconds := EngineSeconds(cycles)
	inputBits := float64(floats * 32)
	gbps := inputBits / seconds / 1e9
	if gbps < 10 {
		t.Fatalf("engine input bandwidth %.1f Gb/s < 10 GbE line rate", gbps)
	}
	if math.Abs(gbps-25.6) > 0.1 {
		t.Fatalf("engine bandwidth %.2f Gb/s, expected 25.6 (256b @ 100MHz)", gbps)
	}
}

func TestPacketizeDepacketize(t *testing.T) {
	vals := gradientVector(2000, 2) // 8000 bytes -> 6 packets
	pkts := PacketizeFloats(vals, 0)
	wantPkts := (4*2000 + comm.MSS - 1) / comm.MSS
	if len(pkts) != wantPkts {
		t.Fatalf("%d packets, want %d", len(pkts), wantPkts)
	}
	back, err := DepacketizeFloats(pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestNICPassThroughUntagged(t *testing.T) {
	n := New(fpcodec.MustBound(10))
	vals := gradientVector(500, 3)
	pkts := PacketizeFloats(vals, 0) // untagged
	egress := n.Egress(pkts)
	if TotalWire(egress) != TotalWire(pkts) {
		t.Fatal("untagged packets were modified on egress")
	}
	ingress, err := n.Ingress(egress)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DepacketizeFloats(ingress)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatal("untagged payload not exact")
		}
	}
	if n.CE.Cycles() != 0 {
		t.Errorf("compression engine ran %d cycles on bypass traffic", n.CE.Cycles())
	}
}

func TestNICCompressedPath(t *testing.T) {
	bound := fpcodec.MustBound(10)
	nicDev := New(bound)
	vals := gradientVector(5000, 4)
	pkts := PacketizeFloats(vals, comm.ToSCompress)
	egress := nicDev.Egress(pkts)
	if TotalWire(egress) >= TotalWire(pkts) {
		t.Fatalf("compression increased wire bytes: %d vs %d", TotalWire(egress), TotalWire(pkts))
	}
	recv := New(bound)
	ingress, err := recv.Ingress(egress)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DepacketizeFloats(ingress)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(vals) {
		t.Fatalf("got %d values, want %d", len(back), len(vals))
	}
	for i := range vals {
		if math.Abs(float64(back[i])-float64(vals[i])) > bound.MaxError() &&
			fpcodec.TagOf(vals[i], bound) != fpcodec.TagNone {
			t.Fatalf("value %d: %g -> %g exceeds bound", i, vals[i], back[i])
		}
	}
}

func TestNICHeaderOnlyPacket(t *testing.T) {
	n := New(fpcodec.MustBound(10))
	pkts := []Packet{{ToS: comm.ToSCompress}} // empty payload
	egress := n.Egress(pkts)
	if egress[0].Compressed {
		t.Fatal("empty payload must bypass the engines")
	}
}

func TestNICIngressRejectsCorruptFrames(t *testing.T) {
	n := New(fpcodec.MustBound(10))
	_, err := n.Ingress([]Packet{{ToS: comm.ToSCompress, Payload: []byte{1, 2}, Compressed: true}})
	if err == nil {
		t.Fatal("expected error on short frame")
	}
	_, err = n.Ingress([]Packet{{ToS: 0, Payload: make([]byte, 16), Compressed: true}})
	if err == nil {
		t.Fatal("expected error on untagged compressed packet")
	}
	// Declared bit length exceeding the payload must be rejected.
	bad := make([]byte, 12)
	bad[0] = 8    // count=8
	bad[4] = 0xFF // bits huge
	bad[5] = 0xFF
	_, err = n.Ingress([]Packet{{ToS: comm.ToSCompress, Payload: bad, Compressed: true}})
	if err == nil {
		t.Fatal("expected error on overlong bit declaration")
	}
	// The count is a raw u32 off the wire: a stream too short to hold it
	// must be rejected before it becomes an allocation (256 MiB and 16 GiB
	// from these two 8-byte frames, otherwise).
	for _, count := range []uint32{1 << 26, math.MaxUint32} {
		frame := make([]byte, frameHeaderBytes)
		binary.LittleEndian.PutUint32(frame, count) // bits stay 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = n.Ingress([]Packet{{ToS: comm.ToSCompress, Payload: frame, Compressed: true}})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, bitio.ErrShortRead) {
			t.Fatalf("count=%d in an empty stream: %v, want ErrShortRead", count, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("count=%d in an empty stream: allocated %d bytes before rejecting it", count, grew)
		}
	}
}

// TestEngineSteadyStateAllocs pins what a payload costs the allocator once
// the engines are warm: nothing to compress, and the returned payload — the
// only thing the caller keeps — to decompress.
func TestEngineSteadyStateAllocs(t *testing.T) {
	bound := fpcodec.MustBound(10)
	payload := gradientVector(4096, 9)
	ce, de := NewCompressionEngine(bound), NewDecompressionEngine(bound)
	data, bits := ce.CompressPayload(payload)
	if n := testing.AllocsPerRun(20, func() { data, bits = ce.CompressPayload(payload) }); n != 0 {
		t.Errorf("CompressPayload: %v allocations per payload, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := de.DecompressPayload(data, bits, len(payload)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecompressPayload: %v allocations per payload, want 1 (the returned slice)", n)
	}
	// Into a lent buffer that holds the payload: nothing, and the values
	// DecompressPayload returns, whatever the buffer held before.
	want, err := de.DecompressPayload(data, bits, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, len(payload)+5)
	for i := range dst {
		dst[i] = float32(math.NaN())
	}
	if n := testing.AllocsPerRun(20, func() {
		got, err := de.DecompressInto(dst, data, bits, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || &got[0] != &dst[0] {
			t.Fatalf("DecompressInto returned %d values, not written over dst", len(got))
		}
	}); n != 0 {
		t.Errorf("DecompressInto: %v allocations per payload into a large enough buffer, want 0", n)
	}
	for i, v := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(v) {
			t.Fatalf("value %d: DecompressInto %g, DecompressPayload %g", i, dst[i], v)
		}
	}
	if got, err := de.DecompressInto(dst[:0:8], data, bits, len(payload)); err != nil || len(got) != len(want) {
		t.Fatalf("DecompressInto a short buffer: %d values, %v", len(got), err)
	}
}

// TestEnginesServeConcurrentCallers: the engines keep nothing between
// payloads but their cycle counters, so senders may share one pair without
// a lock (tcpfabric's senders and readers on every link do). Run under
// -race.
func TestEnginesServeConcurrentCallers(t *testing.T) {
	bound := fpcodec.MustBound(10)
	ce, de := NewCompressionEngine(bound), NewDecompressionEngine(bound)
	const callers, rounds = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			payload := gradientVector(1000+c, int64(c))
			var data []byte
			for r := 0; r < rounds; r++ {
				var bits int
				data, bits = ce.CompressInto(data, payload)
				out, err := de.DecompressPayload(data, bits, len(payload))
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range payload {
					if out[i] != fpcodec.Roundtrip(v, bound) {
						t.Errorf("caller %d round %d: value %d is %g", c, r, i, out[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var bursts int64
	for c := 0; c < callers; c++ {
		bursts += rounds * CompressionCycles(1000+c)
	}
	if ce.Cycles() != bursts || de.Cycles() != bursts+callers*rounds {
		t.Errorf("cycles = %d/%d, want %d/%d", ce.Cycles(), de.Cycles(), bursts, bursts+callers*rounds)
	}
}

// TestQuickEngineCodecEquivalence is the property-based version of the
// bit-exactness cross-check, on each of the codec kernel's paths.
func TestQuickEngineCodecEquivalence(t *testing.T) {
	for _, path := range kernelPaths() {
		t.Run(path, func(t *testing.T) {
			defer fpcodec.SetLanes(fpcodec.SetLanes(path == "avx2"))
			testQuickEngineCodecEquivalence(t)
		})
	}
}

func testQuickEngineCodecEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint16, eRaw uint8) bool {
		n := int(nRaw)%500 + 1
		e := int(eRaw)%15 + 1
		bound := fpcodec.MustBound(e)
		payload := gradientVector(n, seed)
		ce := NewCompressionEngine(bound)
		data, bits := ce.CompressPayload(payload)
		w := bitio.NewWriter(4 * n)
		fpcodec.CompressStream(w, payload, bound)
		if bits != w.Len() {
			return false
		}
		ref := w.Bytes()
		for i := range ref {
			if data[i] != ref[i] {
				return false
			}
		}
		de := NewDecompressionEngine(bound)
		out, err := de.DecompressPayload(data, bits, n)
		if err != nil {
			return false
		}
		for i := range payload {
			if out[i] != fpcodec.Roundtrip(payload[i], bound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineCompress64K(b *testing.B) {
	bound := fpcodec.MustBound(10)
	payload := gradientVector(64*1024, 1)
	ce := NewCompressionEngine(bound)
	b.SetBytes(int64(4 * len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ce.CompressPayload(payload)
	}
}
