package tcpfabric

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
)

// wireTap is a connection that records what is written to it.
type wireTap struct {
	net.Conn
	wrote bytes.Buffer
}

func (w *wireTap) Write(b []byte) (int, error) { return w.wrote.Write(b) }

// randomBits returns n floats of random bit patterns, every fourth a NaN
// with a random payload, quiet or signalling, of either sign.
func randomBits(rng *rand.Rand, n int) []float32 {
	p := make([]float32, n)
	for i := range p {
		b := rng.Uint32()
		if i%4 == 0 {
			b |= 0x7f800000
			if b&0x007fffff == 0 {
				b |= 1
			}
		}
		p[i] = math.Float32frombits(b)
	}
	return p
}

// sameBits fails unless got and want hold the same bit patterns.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: float %d is %#08x, want %#08x", what, i, g, w)
		}
	}
}

// TestPlainFrameIsReferenceFrame: a plain send puts on the socket exactly
// the frame the frame.PutF32s encoding of its payload makes, header and
// body, leaves its payload as it was, and a receiver delivers that frame's
// floats bit for bit, NaN payloads included. Lengths cover the empty frame
// and ones that end mid-way through a group of four floats.
func TestPlainFrameIsReferenceFrame(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(51))
	ol := &c.Node(0).out[1]
	for seq, n := range []int{0, 1, 3, 4, 5, 1000, 37888} {
		payload := randomBits(rng, n)
		kept := append([]float32(nil), payload...)

		tap := &wireTap{}
		ol.conn = tap
		if err := c.Node(0).SendCtx(context.Background(), 1, payload, 0, seq); err != nil {
			t.Fatal(err)
		}
		ol.conn = c.Node(0).conns[1]
		sameBits(t, "sent payload", payload, kept)

		body := make([]byte, 4*n)
		frame.PutF32s(body, kept)
		header := encodeHeader(frameHeader{
			kind: kindData, seq: uint32(seq), tag: uint32(seq), count: uint32(n),
			payloadLen: uint32(len(body)), crc: bodyCRC(body),
		})
		if want := append(header[:], body...); !bytes.Equal(tap.wrote.Bytes(), want) {
			t.Fatalf("n=%d: the wire differs from the reference frame", n)
		}

		// The tapped frame, put on the socket, arrives bit for bit.
		if _, err := c.Node(0).conns[1].Write(tap.wrote.Bytes()); err != nil {
			t.Fatal(err)
		}
		got, err := c.Node(1).RecvCtx(context.Background(), 0, seq)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "received payload", got, kept)
	}
}

// TestCorruptedPlainSendKeepsPayload: chaos damages a plain frame on the
// wire, whose body is the caller's payload. The damage goes into a copy:
// the payload is bit-identical after the send, and the receiver fails the
// frame on its CRC.
func TestCorruptedPlainSendKeepsPayload(t *testing.T) {
	c, err := NewClusterWithOptions(2, ClusterOptions{
		Bound: fpcodec.MustBound(10),
		Chaos: fault.NewInjector(2, fault.Config{
			Seed:  9,
			Links: map[fault.Link]fault.LinkFaults{{Src: 0, Dst: 1}: {CorruptRate: 1, Until: 1}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := randomBits(rand.New(rand.NewSource(3)), 4096)
	kept := append([]float32(nil), payload...)
	if err := c.Node(0).SendCtx(context.Background(), 1, payload, 0, 1); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "payload after a corrupted send", payload, kept)
	badFrame(t, nodeError(t, c, 1), "0->1 seq 0", "CRC mismatch")
}

// TestCRCFailingPlainFrameNeverDelivered: a plain frame whose CRC does not
// match is read into the buffer the link lent out before, and was handed
// back, and is not delivered: the receive waiting for it runs out its
// deadline, and the link reports the CRC mismatch.
func TestCRCFailingPlainFrameNeverDelivered(t *testing.T) {
	c, err := NewCluster(2, false, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4))
	lent := exchange(t, c, randomBits(rng, 1024), 0, 1)

	// What the receive below does first, done before the frame is sent.
	c.Node(1).in[0].Reclaim()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	recv := make(chan error, 1)
	go func() {
		_, err := c.Node(1).RecvCtx(ctx, 0, 2)
		if err == nil {
			err = errors.New("delivered a frame")
		}
		recv <- err
	}()

	spoilt := randomBits(rng, len(lent))
	body := make([]byte, 4*len(spoilt))
	frame.PutF32s(body, spoilt)
	header := encodeHeader(frameHeader{
		kind: kindData, seq: 1, tag: 2, count: uint32(len(spoilt)),
		payloadLen: uint32(len(body)), crc: bodyCRC(body) ^ 1,
	})
	if _, err := c.Node(0).conns[1].Write(append(header[:], body...)); err != nil {
		t.Fatal(err)
	}
	badFrame(t, nodeError(t, c, 1), "0->1 seq 1", "CRC mismatch")
	sameBits(t, "the buffer the frame was read into", lent, spoilt)
	if err := <-recv; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("receive of a CRC-failing frame = %v, want the deadline", err)
	}
}
