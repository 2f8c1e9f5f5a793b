package comm

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSendRecvCtxBasic(t *testing.T) {
	f := NewFabric(2, nil)
	ctx := context.Background()
	go func() {
		if err := f.Endpoint(0).SendCtx(ctx, 1, []float32{1, 2, 3}, 0, 7); err != nil {
			t.Error(err)
		}
	}()
	got, err := f.Endpoint(1).RecvCtx(ctx, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestRecvCtxDeadline(t *testing.T) {
	f := NewFabric(2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := f.Endpoint(1).RecvCtx(ctx, 0, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if f.Stats(0, 1).Timeouts.Load() == 0 {
		t.Error("timeout not counted in link stats")
	}
}

func TestSendCtxDeadlineOnFullChannel(t *testing.T) {
	f := NewFabric(2, nil)
	e := f.Endpoint(0)
	// Saturate the link's buffer, then the next send must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var err error
	for i := 0; i < 10000; i++ {
		if err = e.SendCtx(ctx, 1, []float32{1}, 0, 0); err != nil {
			break
		}
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded on saturated link, got %v", err)
	}
	// The failed send's copy went back to the link's free list.
	if kept := len(f.links[0][1].lend.free.boxes); kept != 1 {
		t.Errorf("%d buffers on the link's free list after a failed send, want 1", kept)
	}
}

func TestRecvCtxTagMismatchIsError(t *testing.T) {
	f := NewFabric(2, nil)
	ctx := context.Background()
	go func() { _ = f.Endpoint(0).SendCtx(ctx, 1, []float32{1}, 0, 3) }()
	if _, err := f.Endpoint(1).RecvCtx(ctx, 0, 4); err == nil {
		t.Fatal("tag mismatch returned nil error")
	}
}

func TestRecvCtxRecordsWait(t *testing.T) {
	f := NewFabric(2, nil)
	go func() {
		time.Sleep(30 * time.Millisecond)
		send(t, f.Endpoint(0), 1, []float32{9}, 0, 1)
	}()
	payload, err := f.Endpoint(1).RecvCtx(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != 9 {
		t.Fatalf("got payload %v", payload)
	}
	if f.Stats(0, 1).MaxRecvWaitNanos.Load() < (10 * time.Millisecond).Nanoseconds() {
		t.Error("recv wait below the injected 30ms delay")
	}
}

func TestObserveRecvWaitMax(t *testing.T) {
	var s LinkStats
	s.ObserveRecvWait(10)
	s.ObserveRecvWait(50)
	s.ObserveRecvWait(20)
	if s.RecvWaitNanos.Load() != 80 {
		t.Errorf("total %d, want 80", s.RecvWaitNanos.Load())
	}
	if s.MaxRecvWaitNanos.Load() != 50 {
		t.Errorf("max %d, want 50", s.MaxRecvWaitNanos.Load())
	}
}
