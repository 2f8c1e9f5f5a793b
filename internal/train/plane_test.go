package train

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/tensor"
)

// TestTransportContract states comm.CtxPeer's contract once, over every
// peer a dataPlane hands out — in-process and loopback TCP:
//
//   - a payload arrives intact, and the sender may overwrite its buffer the
//     moment SendCtx returns;
//   - a received payload is lent until the next receive from its source:
//     it stays intact while frames from other sources arrive and are
//     received, and while its own source has more frames queued behind it;
//   - a receive past its deadline returns an error wrapping
//     context.DeadlineExceeded;
//   - a wrong tag is an error, never a panic;
//   - RecvIntoCtx lends nothing, and takes back its source's earlier loan.
//
// The compressed planes run the ownership rows over the codec path, whose
// payloads are lent like plain ones on both planes: on the in-process one
// they are decoded into buffers from the same link's list that lent the
// identity payload before them.
func TestTransportContract(t *testing.T) {
	planes := map[string]Options{
		"inproc":      {},
		"inproc-comp": {Compress: true, Processor: comm.CodecProcessor{Bound: fpcodec.MustBound(10)}},
		"tcp":         {Plane: TCP},
		"tcp-comp":    {Plane: TCP, Compress: true, Bound: fpcodec.MustBound(10)},
	}
	for name, o := range planes {
		t.Run(name, func(t *testing.T) {
			plane, err := newPlane(3, o)
			if err != nil {
				t.Fatal(err)
			}
			defer plane.Close()
			var peers [3]comm.CtxPeer
			for id := range peers {
				peers[id] = plane.peer(id)
			}
			from, to := peers[0], peers[1]
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			want := []float32{1.5, -2.25, 0, 1e-8, 12345}
			buf := append([]float32(nil), want...)
			if err := from.SendCtx(ctx, 1, buf, 0, 42); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 99 // the sender reuses its buffer at once
			}
			got, err := to.RecvCtx(ctx, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("received %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("received %v, want %v", got, want)
				}
			}

			// Ownership. Every frame carries values of its own, and
			// compressed ones go through the codec, so a payload is
			// checked against what it held when it was received.
			const dim = 4096
			frame := func(src, k int) []float32 {
				v := make([]float32, dim)
				for i := range v {
					v[i] = float32(1000*src+100*k) + float32(i)/8
				}
				return v
			}
			send := func(src, k int) {
				t.Helper()
				if err := peers[src].SendCtx(ctx, 1, frame(src, k), comm.ToSCompress, 50+k); err != nil {
					t.Fatal(err)
				}
			}
			recv := func(src, k int) []float32 {
				t.Helper()
				got, err := to.RecvCtx(ctx, src, 50+k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != dim {
					t.Fatalf("frame %d from %d: %d values, want %d", k, src, len(got), dim)
				}
				return got
			}
			intact := func(what string, got, held []float32) {
				t.Helper()
				for i := range held {
					if math.Float32bits(got[i]) != math.Float32bits(held[i]) {
						t.Fatalf("%s: value %d changed from %g to %g", what, i, held[i], got[i])
					}
				}
			}
			send(0, 0)
			a := recv(0, 0)
			heldA := slices.Clone(a)
			send(0, 1)
			send(0, 2)
			send(2, 0)
			b := recv(2, 0)
			heldB := slices.Clone(b)
			time.Sleep(20 * time.Millisecond) // let the queued frames be read and decoded
			intact("payload from 0 with 0's frames queued and 2's received", a, heldA)
			next := recv(0, 1)
			intact("payload from 2 after a receive from 0", b, heldB)
			if !o.Compress {
				intact("first frame from 0", heldA, frame(0, 0))
				intact("second frame from 0", next, frame(0, 1))
				intact("frame from 2", heldB, frame(2, 0))
			}
			recv(0, 2)

			// RecvIntoCtx lends nothing and takes back its source's earlier
			// loan, and only that: a payload lent from another source stays
			// intact. In process, where a link draws a buffer at a send or
			// a receive, both go straight back to the link's list, so the
			// next two frames are lent in their storage, the second in the
			// loan's. (A TCP link draws when a frame arrives, which this
			// test cannot wait for; tcpfabric's TestRecvIntoLendsNothing
			// waits and checks the same.) The lists hold their buffers
			// weakly, so the collector is off for this part (a collection
			// would empty them).
			gc := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(gc)
			send(0, 3)
			other := recv(0, 3)
			heldOther := slices.Clone(other)
			send(2, 1)
			loan := recv(2, 1)
			send(2, 2)
			into := make([]float32, dim)
			if err := to.RecvIntoCtx(ctx, 2, 52, into, false); err != nil {
				t.Fatal(err)
			}
			if !o.Compress {
				intact("frame received into a vector", into, frame(2, 2))
			}
			send(2, 3)
			send(2, 4)
			recv(2, 3)
			if last := recv(2, 4); o.Plane != TCP && &last[0] != &loan[0] {
				t.Error("after a RecvIntoCtx, the frames that followed were not lent in the storage of its source's earlier loan")
			}
			intact("payload from 0 after receives from 2 into a vector", other, heldOther)

			short, cancelShort := context.WithTimeout(ctx, 30*time.Millisecond)
			defer cancelShort()
			if _, err := to.RecvCtx(short, 0, 43); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("recv on an idle link: err = %v, want DeadlineExceeded", err)
			}

			if err := from.SendCtx(ctx, 1, want, 0, 44); err != nil {
				t.Fatal(err)
			}
			if _, err := to.RecvCtx(ctx, 0, 45); err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("recv with the wrong tag: err = %v, want a tag error", err)
			}
		})
	}
}

// TestRecvIntoMatchesRecv: RecvIntoCtx writes, or adds, exactly what
// RecvCtx followed by copy or tensor.Add gives, bit for bit, on every
// plane and both ToS values, at lengths around the codec's 8-float groups
// and the in-process decoder's 4096-float sections. The values pair every
// edge case with every other — ±0, ±Inf, quiet and signalling NaNs with
// payload bits — in both operands of the add, whose sum of two NaNs keeps
// the first operand's payload, and then run to random bits. A wrong tag or
// length is an error that leaves dst as it was.
func TestRecvIntoMatchesRecv(t *testing.T) {
	edges := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffe0abcd),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
		1.5, -2.25, 0.0123, -3e-8,
	}
	planes := map[string]Options{
		"inproc":      {},
		"inproc-comp": {Compress: true, Processor: comm.CodecProcessor{Bound: fpcodec.MustBound(10)}},
		"tcp":         {Plane: TCP},
		"tcp-comp":    {Plane: TCP, Compress: true, Bound: fpcodec.MustBound(10)},
	}
	for name, o := range planes {
		t.Run(name, func(t *testing.T) {
			plane, err := newPlane(2, o)
			if err != nil {
				t.Fatal(err)
			}
			defer plane.Close()
			from, to := plane.peer(0), plane.peer(1)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			rng := rand.New(rand.NewSource(7))
			vectors := func(n int) (payload, base []float32) {
				payload, base = make([]float32, n), make([]float32, n)
				for i := range n {
					if pairs := len(edges) * len(edges); i < pairs {
						payload[i], base[i] = edges[i/len(edges)], edges[i%len(edges)]
					} else {
						payload[i], base[i] = math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32())
					}
				}
				return payload, base
			}
			tag := 0
			sendTwice := func(payload []float32, tos uint8) {
				t.Helper()
				tag++
				for range 2 {
					if err := from.SendCtx(ctx, 1, payload, tos, tag); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, n := range []int{0, 1, 7, 8, 4095, 4096, 4097, 3*4096 + 9} {
				for _, tos := range []uint8{0, comm.ToSCompress} {
					for _, add := range []bool{false, true} {
						payload, base := vectors(n)
						sendTwice(payload, tos)
						got, err := to.RecvCtx(ctx, 0, tag)
						if err != nil {
							t.Fatal(err)
						}
						want := slices.Clone(base)
						if add {
							tensor.Add(want, got)
						} else {
							copy(want, got)
						}
						dst := slices.Clone(base)
						if err := to.RecvIntoCtx(ctx, 0, tag, dst, add); err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
								t.Fatalf("n=%d tos %#x add=%v: value %d is %#08x, want %#08x (%#08x into %#08x)", n, tos, add, i,
									math.Float32bits(dst[i]), math.Float32bits(want[i]), math.Float32bits(payload[i]), math.Float32bits(base[i]))
							}
						}
					}
				}
			}

			for _, tos := range []uint8{0, comm.ToSCompress} {
				payload, base := vectors(4097)
				for _, bad := range []struct {
					what     string
					tag, len int
				}{{"wrong tag", 1, 0}, {"short vector", 0, -8}, {"long vector", 0, 8}} {
					sendTwice(payload, tos)
					if _, err := to.RecvCtx(ctx, 0, tag); err != nil { // keep the link in step
						t.Fatal(err)
					}
					dst := make([]float32, len(base)+bad.len)
					copy(dst, base)
					held := slices.Clone(dst)
					if err := to.RecvIntoCtx(ctx, 0, tag+bad.tag, dst, true); err == nil {
						t.Fatalf("tos %#x %s: no error", tos, bad.what)
					}
					for i := range held {
						if math.Float32bits(dst[i]) != math.Float32bits(held[i]) {
							t.Fatalf("tos %#x %s: value %d changed", tos, bad.what, i)
						}
					}
				}
			}
		})
	}
}
