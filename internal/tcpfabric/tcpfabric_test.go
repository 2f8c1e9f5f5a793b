package tcpfabric

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

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
				comm.ProcessInto(proc, b, b, comm.ToSCompress)
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
// buffers, a frame allocates nothing — no body, stream, read buffer,
// decoded payload, or box to hold one of them weakly — on every plane the
// one free list serves: the in-process fabric's identity and codec paths,
// and TCP's raw and compressed paths. A send's body is back on its list
// when SendCtx returns, a received payload on its list at the next
// receive, and a payload received into a vector, or an in-process stream
// decoded there, when RecvIntoCtx returns. Each plane is driven in two
// shapes, received by RecvCtx and by RecvIntoCtx: one frame sent and
// received at a time, and a burst of 80 frames sent before any is received
// (more than a pipelined step of HDC's blocks puts in flight), which a
// bounded list would overflow to the allocator. A TCP link's reader draws a frame's
// buffer when the frame arrives, so the warm-up bursts wait until every
// frame has arrived before receiving any: then the link has made all the
// buffers a burst can ever hold at once. The lists hold their buffers
// weakly, so the collector is off during the test (a collection would
// empty them). Under -race, whose runtime is free to allocate on its own
// account, only the byte bound is checked: no frame-sized buffer is
// allocated per frame.
func TestWarmLinkAllocatesNoFrames(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	payload := make([]float32, 1<<14)
	rng := rand.New(rand.NewSource(5))
	for i := range payload {
		payload[i] = float32(rng.NormFloat64() * 0.01)
	}
	// A link is a sender a, a receiver b, arrived (nil in-process, where a
	// send draws its buffer itself) waiting until b holds n frames from a,
	// and stop.
	type link struct {
		a, b    comm.CtxPeer
		arrived func(n int)
		stop    func()
	}
	tcp := func(compress bool) func() link {
		return func() link {
			c, err := NewCluster(2, compress, fpcodec.MustBound(10))
			if err != nil {
				t.Fatal(err)
			}
			arrived := func(n int) {
				for deadline := time.Now().Add(10 * time.Second); len(c.Node(1).inbox[0]) < n; {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d frames arrived", len(c.Node(1).inbox[0]), n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			return link{c.Node(0), c.Node(1), arrived, c.Close}
		}
	}
	inproc := func(proc comm.WireProcessor) func() link {
		return func() link {
			f := comm.NewFabric(2, proc)
			return link{f.Endpoint(0), f.Endpoint(1), nil, func() {}}
		}
	}
	for _, row := range []struct {
		name  string
		peers func() link
	}{
		{"inproc", inproc(nil)},
		{"inproc-comp", inproc(comm.CodecProcessor{Bound: fpcodec.MustBound(10)})},
		{"tcp", tcp(false)},
		{"tcp-comp", tcp(true)},
	} {
		t.Run(row.name, func(t *testing.T) {
			l := row.peers()
			defer l.stop()
			ctx := context.Background()
			tag := 0
			var into []float32 // when set, frames are received into it, copied and added by turns
			burst := func(frames int, settle bool) func() {
				return func() {
					for range frames {
						tag++
						if err := l.a.SendCtx(ctx, 1, payload, comm.ToSCompress, tag); err != nil {
							t.Fatal(err)
						}
					}
					if settle && l.arrived != nil {
						l.arrived(frames)
					}
					tag -= frames
					for range frames {
						tag++
						var err error
						if into == nil {
							_, err = l.b.RecvCtx(ctx, 0, tag)
						} else {
							err = l.b.RecvIntoCtx(ctx, 0, tag, into, tag%2 == 1)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for _, shape := range []struct {
				name         string
				frames, warm int
				runs         int
				into         bool
			}{
				{"one frame at a time", 1, 10, 200, false},
				{"burst of 80 frames", 80, 3, 10, false},
				{"one frame at a time into a vector", 1, 10, 200, true},
				{"burst of 80 frames into a vector", 80, 3, 10, true},
			} {
				into = nil
				if shape.into {
					into = make([]float32, len(payload))
				}
				for range shape.warm {
					burst(shape.frames, true)()
				}
				round := burst(shape.frames, false)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allocs := testing.AllocsPerRun(shape.runs, round)
				runtime.ReadMemStats(&after)
				frames := uint64(shape.runs+1) * uint64(shape.frames)
				if perFrame := (after.TotalAlloc - before.TotalAlloc) / frames; perFrame > uint64(len(payload)/4) {
					t.Errorf("%s: %d bytes allocated per %d-byte frame on a warm link", shape.name, perFrame, 4*len(payload))
				}
				if !raceEnabled && allocs != 0 {
					t.Errorf("%s: %v allocations per round on a warm link, want none", shape.name, allocs)
				}
			}
		})
	}
}

// TestRecvIntoLendsNothing: RecvIntoCtx takes back its source's earlier
// loan and puts its own payload straight back on the link's list, so the
// next two frames that arrive are read into those two buffers, the second
// into the loan's. A link's reader draws a buffer when a frame arrives, so
// the test waits for each frame before receiving it. The lists hold their
// buffers weakly, so the collector is off during the test.
func TestRecvIntoLendsNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, compress := range []bool{false, true} {
		c, err := NewCluster(2, compress, fpcodec.MustBound(10))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		payload := make([]float32, 1024)
		for i := range payload {
			payload[i] = float32(i) / 1024
		}
		tag := 0
		send := func(frames int) {
			t.Helper()
			for range frames {
				tag++
				if err := c.Node(0).SendCtx(ctx, 1, payload, comm.ToSCompress, tag); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); len(c.Node(1).inbox[0]) < frames; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames arrived", len(c.Node(1).inbox[0]), frames)
				}
				time.Sleep(time.Millisecond)
			}
			tag -= frames
		}
		recv := func() []float32 {
			t.Helper()
			tag++
			got, err := c.Node(1).RecvCtx(ctx, 0, tag)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		send(1)
		loan := recv()
		send(1)
		tag++
		if err := c.Node(1).RecvIntoCtx(ctx, 0, tag, make([]float32, len(payload)), true); err != nil {
			t.Fatal(err)
		}
		send(2)
		recv()
		if last := recv(); &last[0] != &loan[0] {
			t.Errorf("compress=%v: after a RecvIntoCtx, the frames that followed were not read into the storage of its source's earlier loan", compress)
		}
	}
}

// raceEnabled is set by race_on_test.go under `go test -race`, whose
// runtime is free to allocate on its own account, so an exact allocation
// count is not asserted there.
var raceEnabled bool
