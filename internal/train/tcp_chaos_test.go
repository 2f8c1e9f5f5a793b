package train

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
)

// TestRingTCPTrainingUnderChaos: the full training loop over real sockets
// fails closed under every fault the wire can show, with an error that
// names its cause — never a hang, never a bare context.Canceled. A frame's
// fault on link 0→1 reaches the run through node 1's reader, the plane's
// anomaly watcher and the run's first error; a partition through the
// step deadline; a crash through the crashed node's own send.
func TestRingTCPTrainingUnderChaos(t *testing.T) {
	trainDS, testDS := digitsData()
	link := fault.Link{Src: 0, Dst: 1}
	for _, tc := range []struct {
		name     string
		compress bool
		chaos    fault.Config
		want     []error // every one must be wrapped
		says     string  // and the message must say this
	}{
		{"corrupt", false, fault.Config{Seed: 1, Links: map[fault.Link]fault.LinkFaults{link: {CorruptRate: 1, From: 4, Until: 5}}},
			[]error{fault.ErrBadFrame}, "0->1 seq 4: CRC mismatch"},
		{"truncate", true, fault.Config{Seed: 1, Links: map[fault.Link]fault.LinkFaults{link: {TruncateRate: 1, From: 4, Until: 12}}},
			[]error{fault.ErrBadFrame, bitio.ErrShortRead}, "0->1 seq"},
		{"drop", false, fault.Config{Seed: 1, Links: map[fault.Link]fault.LinkFaults{link: {DropRate: 1, From: 4, Until: 5}}},
			[]error{fault.ErrBadFrame}, "0->1 seq 5: sequence gap, want seq 4"},
		{"partition", false, fault.Config{Seed: 1, Links: map[fault.Link]fault.LinkFaults{link: fault.Partition(4)}},
			[]error{context.DeadlineExceeded}, "tcpfabric: recv "},
		{"crash", false, fault.Config{Seed: 1, CrashAfter: map[int]uint64{1: 20}},
			[]error{fault.ErrCrashed}, "node 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := digitsOptions()
			o.StepTimeout = time.Second
			o.Compress = tc.compress
			o.Chaos = &tc.chaos
			done := make(chan error, 1)
			go func() {
				_, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o.onTCP(fpcodec.MustBound(10)))
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("training under chaos hung")
			}
			if err == nil {
				t.Fatal("training under chaos reported success")
			}
			if errors.Is(err, context.Canceled) {
				t.Fatalf("failed with a bare cancellation: %v", err)
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want one wrapping %v", err, want)
				}
			}
			if !strings.Contains(err.Error(), tc.says) {
				t.Errorf("err = %v, want one saying %q", err, tc.says)
			}
			t.Logf("failed closed: %v", err)
		})
	}
}

// TestRingTCPTrainingPartitionFails: a permanently partitioned link must
// abort the run with a timeout-flavoured error, not hang the job — a ring
// link, and either direction of a switch port.
func TestRingTCPTrainingPartitionFails(t *testing.T) {
	trainDS, testDS := digitsData()
	sw := digitsOptions().Workers
	for _, tc := range []struct {
		name string
		algo Algorithm
		link fault.Link
	}{
		{"ring link", Ring, fault.Link{Src: 0, Dst: 1}},
		{"switch uplink", SwitchReduce, fault.Link{Src: 0, Dst: sw}},
		{"switch downlink", SwitchReduce, fault.Link{Src: sw, Dst: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := digitsOptions()
			o.Algo = tc.algo
			o.StepTimeout = 500 * time.Millisecond
			o.Chaos = &fault.Config{
				Seed:  1,
				Links: map[fault.Link]fault.LinkFaults{tc.link: fault.Partition(0)},
			}
			done := make(chan error, 1)
			go func() {
				_, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o.onTCP(fpcodec.MustBound(10)))
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("partitioned training run reported success")
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("want a deadline-flavoured error, got %v", err)
				}
				t.Logf("failed closed: %v", err)
			case <-time.After(60 * time.Second):
				t.Fatal("partitioned training run hung")
			}
		})
	}
}
