package train

import (
	"context"
	"errors"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/elastic"
	"inceptionn/internal/fault"
)

// TestTransportContract states comm.CtxPeer's contract once, over every
// peer a dataPlane hands out — in-process, loopback TCP, and loopback TCP
// whose ARQ repairs a lossy link — each bare and behind the elastic epoch
// filter:
//
//   - a payload arrives intact, and the sender may overwrite its buffer the
//     moment SendCtx returns;
//   - a receive past its deadline returns an error wrapping
//     context.DeadlineExceeded;
//   - a wrong tag is an error, never a panic.
func TestTransportContract(t *testing.T) {
	lossy := &fault.Config{Seed: 4, Default: fault.LinkFaults{DropRate: 0.2, CorruptRate: 0.2, DupRate: 0.1}}
	planes := map[string]Options{
		"inproc":    {},
		"tcp":       {Plane: TCP},
		"tcp-chaos": {Plane: TCP, Chaos: lossy},
	}
	for name, o := range planes {
		for _, filtered := range []bool{false, true} {
			row := name
			if filtered {
				row += "+elastic"
			}
			t.Run(row, func(t *testing.T) {
				plane, err := newPlane(2, o)
				if err != nil {
					t.Fatal(err)
				}
				defer plane.Close()
				var peers [2]comm.CtxPeer
				for id := range peers {
					tr := plane.peer(id)
					peers[id] = tr
					if filtered {
						peers[id] = elastic.NewPeer(tr)
					}
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
}
