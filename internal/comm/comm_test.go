package comm

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"inceptionn/internal/fpcodec"
)

func TestWireBytes(t *testing.T) {
	cases := []struct {
		payload, want int64
	}{
		{0, HeaderBytes},                    // empty payload still costs a packet
		{1, 1 + HeaderBytes},                // one packet
		{MSS, MSS + HeaderBytes},            // exactly one full packet
		{MSS + 1, MSS + 1 + 2*HeaderBytes},  // spills into a second packet
		{10 * MSS, 10*MSS + 10*HeaderBytes}, // ten packets
	}
	for _, c := range cases {
		if got := WireBytes(c.payload); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

// send and recv are the tests' shorthands over the one transport
// contract; send reports with t.Error so it may run off the test goroutine.
func send(t *testing.T, e *Endpoint, dst int, payload []float32, tos uint8, tag int) {
	t.Helper()
	if err := e.SendCtx(context.Background(), dst, payload, tos, tag); err != nil {
		t.Error(err)
	}
}

func recv(t *testing.T, e *Endpoint, src, tag int) []float32 {
	t.Helper()
	got, err := e.RecvCtx(context.Background(), src, tag)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSendRecvBasic(t *testing.T) {
	f := NewFabric(2, nil)
	a, b := f.Endpoint(0), f.Endpoint(1)
	go send(t, a, 1, []float32{1, 2, 3}, 0, 7)
	got := recv(t, b, 0, 7)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	f := NewFabric(2, nil)
	a, b := f.Endpoint(0), f.Endpoint(1)
	buf := []float32{1, 2, 3}
	send(t, a, 1, buf, 0, 0)
	buf[0] = 99 // sender reuses its buffer
	got := recv(t, b, 0, 0)
	if got[0] != 1 {
		t.Fatalf("receiver observed sender mutation: %v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := NewFabric(2, nil)
	payload := make([]float32, 1000) // 4000 bytes: 3 packets
	send(t, f.Endpoint(0), 1, payload, 0, 0)
	recv(t, f.Endpoint(1), 0, 0)
	s := f.Stats(0, 1)
	if s.Messages.Load() != 1 {
		t.Errorf("messages = %d", s.Messages.Load())
	}
	if s.RawBytes.Load() != 4000 || s.PayloadBytes.Load() != 4000 {
		t.Errorf("raw=%d payload=%d", s.RawBytes.Load(), s.PayloadBytes.Load())
	}
	wantWire := int64(4000 + 3*HeaderBytes)
	if s.WireBytes.Load() != wantWire {
		t.Errorf("wire = %d, want %d", s.WireBytes.Load(), wantWire)
	}
	if f.TotalWireBytes() != wantWire {
		t.Errorf("total wire = %d, want %d", f.TotalWireBytes(), wantWire)
	}
}

func TestCodecProcessorCompressesOnlyToS(t *testing.T) {
	proc := CodecProcessor{Bound: fpcodec.MustBound(10)}
	f := NewFabric(2, proc)
	a, b := f.Endpoint(0), f.Endpoint(1)
	rng := rand.New(rand.NewSource(1))
	payload := make([]float32, 8192)
	for i := range payload {
		payload[i] = float32(rng.NormFloat64() * 0.001)
	}

	// Untagged: bytes unchanged, values exact.
	send(t, a, 1, payload, 0, 1)
	got := recv(t, b, 0, 1)
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("untagged payload modified")
		}
	}
	s := f.Stats(0, 1)
	if s.PayloadBytes.Load() != 4*8192 {
		t.Fatalf("untagged payload bytes = %d", s.PayloadBytes.Load())
	}
	plainPayload, plainRaw := s.PayloadBytes.Load(), s.RawBytes.Load()

	// Tagged: far fewer bytes, values within the error bound.
	send(t, a, 1, payload, ToSCompress, 2)
	got = recv(t, b, 0, 2)
	bound := fpcodec.MustBound(10).MaxError()
	for i := range payload {
		if math.Abs(float64(got[i])-float64(payload[i])) > bound {
			t.Fatalf("element %d: |%g-%g| > %g", i, got[i], payload[i], bound)
		}
	}
	compressed := s.PayloadBytes.Load() - plainPayload
	if compressed >= 4*8192/4 {
		t.Errorf("compressed payload = %d bytes; expected > 4x reduction on tight gradients", compressed)
	}
	if raw := s.RawBytes.Load() - plainRaw; raw != 4*8192 {
		t.Errorf("raw bytes = %d", raw)
	}
}

func TestConcurrentPairwiseTraffic(t *testing.T) {
	const n = 8
	f := NewFabric(n, nil)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e := f.Endpoint(id)
			for round := 0; round < 50; round++ {
				for peer := 0; peer < n; peer++ {
					if peer == id {
						continue
					}
					send(t, e, peer, []float32{float32(id), float32(round)}, 0, round)
				}
				for peer := 0; peer < n; peer++ {
					if peer == id {
						continue
					}
					m, err := e.RecvCtx(context.Background(), peer, round)
					if err != nil || int(m[0]) != peer || int(m[1]) != round {
						t.Errorf("node %d: bad message %v (%v) from %d round %d", id, m, err, peer, round)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
}

func TestEndpointRangeChecks(t *testing.T) {
	f := NewFabric(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Endpoint(2)
}

// raceEnabled is set by race_on_test.go under `go test -race`, whose
// runtime is free to allocate on its own account, so allocation counts
// mean nothing there.
var raceEnabled bool

// TestCodecProcessorOwnership: Process may be called from every sender at
// once; each call's result is the scalar codec's roundtrip in storage no
// other call shares (the receiver owns it), and a warm call allocates that
// storage and nothing else — the compressed stream lives on the stack, and
// ProcessInto, which writes into storage the caller has, allocates nothing.
func TestCodecProcessorOwnership(t *testing.T) {
	bound := fpcodec.MustBound(10)
	proc := CodecProcessor{Bound: bound}
	const senders = 4
	outs := make([][]float32, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			payload := make([]float32, 4096)
			for i := range payload {
				payload[i] = float32(rng.NormFloat64() * 0.01)
			}
			for round := 0; round < 8; round++ {
				outs[s], _ = proc.Process(payload, ToSCompress)
				for i, v := range payload {
					if outs[s][i] != fpcodec.Roundtrip(v, bound) {
						t.Errorf("sender %d round %d: value %d is %g", s, round, i, outs[s][i])
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for s := 1; s < senders; s++ {
		if &outs[s][0] == &outs[0][0] {
			t.Fatalf("senders 0 and %d were handed the same storage", s)
		}
	}
	if raceEnabled {
		return
	}
	payload := make([]float32, 4096)
	for i := range payload {
		payload[i] = float32(i%97) * 1e-4
	}
	if n := testing.AllocsPerRun(50, func() { proc.Process(payload, ToSCompress) }); n != 1 {
		t.Errorf("Process on a 4096-float chunk: %v allocations, want 1 (the payload the receiver owns)", n)
	}
	var wire WireProcessor = proc // as the fabric holds it: boxing is not ProcessInto's
	dst := make([]float32, len(payload))
	if n := testing.AllocsPerRun(50, func() { ProcessInto(wire, dst, payload, ToSCompress) }); n != 0 {
		t.Errorf("ProcessInto on a 4096-float chunk: %v allocations, want none", n)
	}
}
