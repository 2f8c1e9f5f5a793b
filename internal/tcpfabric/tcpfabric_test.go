package tcpfabric

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/ring"
)

func TestClusterConstruction(t *testing.T) {
	c, err := NewCluster(4, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	for i := 0; i < 4; i++ {
		if c.Node(i).ID() != i || c.Node(i).N() != 4 {
			t.Fatalf("node %d misconfigured", i)
		}
	}
}

// exchange sends payload 0→1 from a goroutine, receives it on node 1 and
// joins the sender before returning: a send adds to SentBytes after its
// Flush, on the sender's goroutine, so the counters may only be read once
// SendCtx has returned.
func exchange(t *testing.T, c *Cluster, payload []float32, tos uint8, tag int) []float32 {
	t.Helper()
	sent := make(chan error, 1)
	go func() { sent <- c.Node(0).SendCtx(context.Background(), 1, payload, tos, tag) }()
	got, err := c.Node(1).RecvCtx(context.Background(), 0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSendRecvOverTCP(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []float32{1.5, -2.25, 0, 1e-8, 12345}
	got := exchange(t, c, want, 0, 42)
	if len(got) != len(want) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: %g != %g", i, got[i], want[i])
		}
	}
	if c.Node(0).SentBytes() == 0 {
		t.Error("byte counters not updated")
	}
}

func TestCompressedFramesSmallerOnWire(t *testing.T) {
	bound := fpcodec.MustBound(10)
	payload := make([]float32, 8192)
	for i := range payload {
		payload[i] = 1e-5
	}

	raw, err := NewCluster(2, false, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	exchange(t, raw, payload, comm.ToSCompress, 1)
	rawBytes := raw.Node(0).SentBytes()

	comp, err := NewCluster(2, true, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	got := exchange(t, comp, payload, comm.ToSCompress, 1)
	compBytes := comp.Node(0).SentBytes()

	if compBytes >= rawBytes/8 {
		t.Errorf("compressed wire bytes %d vs raw %d: expected > 8x reduction", compBytes, rawBytes)
	}
	for i := range payload {
		if math.Abs(float64(got[i])-float64(payload[i])) > bound.MaxError() {
			t.Fatalf("value %d out of bound", i)
		}
	}
	if comp.Node(0).ce.Cycles() == 0 {
		t.Error("sender compression engine idle")
	}
	if comp.Node(1).de.Cycles() == 0 {
		t.Error("receiver decompression engine idle")
	}
}

func TestUntaggedBypassesEnginesEvenWhenEnabled(t *testing.T) {
	bound := fpcodec.MustBound(6)
	c, err := NewCluster(2, true, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []float32{1e-5, 2e-5} // would be crushed by the codec
	got := exchange(t, c, payload, 0, 3)
	if got[0] != 1e-5 || got[1] != 2e-5 {
		t.Fatalf("untagged payload modified: %v", got)
	}
	if c.Node(0).ce.Cycles() != 0 {
		t.Error("engine ran on untagged traffic")
	}
}

// TestRingAllReduceOverRealTCP runs Algorithm 1 over genuine sockets.
func TestRingAllReduceOverRealTCP(t *testing.T) {
	for _, compress := range []bool{false, true} {
		bound := fpcodec.MustBound(10)
		c, err := NewCluster(4, compress, bound)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		inputs := make([][]float32, 4)
		want := make([]float64, 1000)
		for i := range inputs {
			inputs[i] = make([]float32, 1000)
			for j := range inputs[i] {
				inputs[i][j] = float32(rng.NormFloat64() * 0.01)
				want[j] += float64(inputs[i][j])
			}
		}
		tos := uint8(0)
		var finalize func([]float32)
		if compress {
			tos = comm.ToSCompress
			proc := comm.CodecProcessor{Bound: bound}
			finalize = func(b []float32) {
				out, _ := proc.Process(b, comm.ToSCompress)
				copy(b, out)
			}
		}
		out := make([][]float32, 4)
		var wg sync.WaitGroup
		for id := 0; id < 4; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				g := append([]float32(nil), inputs[id]...)
				if err := ring.AllReduceCtx(context.Background(), c.Node(id), g, tos, finalize, ring.Options{}); err != nil {
					t.Error(err)
				}
				out[id] = g
			}(id)
		}
		wg.Wait()
		c.Close()

		tol := 0.0
		if compress {
			tol = bound.MaxError() * 6 // up to 2(n-1) lossy hops
		}
		for node := range out {
			for j := range want {
				if math.Abs(float64(out[node][j])-want[j]) > tol+1e-6 {
					t.Fatalf("compress=%v node %d elem %d: got %g want %g",
						compress, node, j, out[node][j], want[j])
				}
			}
		}
		// Replica identity must hold over TCP too.
		for node := 1; node < 4; node++ {
			for j := range out[0] {
				if out[node][j] != out[0][j] {
					t.Fatalf("compress=%v: node %d diverged at %d", compress, node, j)
				}
			}
		}
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	c, err := NewCluster(4, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nd := c.Node(id)
			for round := 0; round < 30; round++ {
				for peer := 0; peer < 4; peer++ {
					if peer != id {
						if err := nd.SendCtx(context.Background(), peer, []float32{float32(id), float32(round)}, 0, round); err != nil {
							t.Error(err)
							return
						}
					}
				}
				for peer := 0; peer < 4; peer++ {
					if peer == id {
						continue
					}
					m, err := nd.RecvCtx(context.Background(), peer, round)
					if err != nil || int(m[0]) != peer || int(m[1]) != round {
						t.Errorf("node %d: bad frame %v (%v) from %d", id, m, err, peer)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, false, fpcodec.MustBound(10)); err == nil {
		t.Error("expected error for zero nodes")
	}
}

func TestEmptyPayload(t *testing.T) {
	c, err := NewCluster(2, true, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := exchange(t, c, []float32{}, 0, 9)
	if len(got) != 0 {
		t.Fatalf("got %d values for empty payload", len(got))
	}
}

// TestWarmLinkAllocatesNoFrames: once a link's free lists hold its
// frames, a frame costs the allocator bookkeeping only — no body, read
// buffer or decoded payload — on the raw and the compressed path alike. A
// send's body is back on its list when SendCtx returns. The lists hold
// their buffers weakly, so the collector is off during the test (a
// collection would empty them).
func TestWarmLinkAllocatesNoFrames(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	payload := make([]float32, 1<<14)
	rng := rand.New(rand.NewSource(5))
	for i := range payload {
		payload[i] = float32(rng.NormFloat64() * 0.01)
	}
	for _, compress := range []bool{false, true} {
		c, err := NewCluster(2, compress, fpcodec.MustBound(10))
		if err != nil {
			t.Fatal(err)
		}
		tag := 0
		pingPong := func(frames int) {
			for i := 0; i < frames; i++ {
				tag++
				exchange(t, c, payload, comm.ToSCompress, tag)
			}
		}
		pingPong(10)
		const frames = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pingPong(frames)
		runtime.ReadMemStats(&after)
		c.Close()
		if perFrame := (after.TotalAlloc - before.TotalAlloc) / frames; perFrame > uint64(len(payload)/4) {
			t.Errorf("compress=%v: %d bytes allocated per %d-byte frame on a warm link (%d GCs)", compress, perFrame, 4*len(payload), after.NumGC-before.NumGC)
		}
	}
}
