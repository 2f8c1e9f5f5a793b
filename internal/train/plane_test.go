package train

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
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
//   - a wrong tag is an error, never a panic.
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
