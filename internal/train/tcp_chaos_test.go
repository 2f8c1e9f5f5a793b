package train

import (
	"context"
	"errors"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
)

// TestRingTCPTrainingUnderChaos: the full training loop over real sockets
// with 2% drops and 2% corruption on every link must produce bitwise the
// same final weights as the fault-free run — retransmission makes the
// lossy wire invisible to the algorithm.
func TestRingTCPTrainingUnderChaos(t *testing.T) {
	trainDS, testDS := digitsData()
	bound := fpcodec.MustBound(10)
	run := func(chaos *fault.Config) []float32 {
		o := digitsOptions()
		o.StepTimeout = 20 * time.Second
		o.Chaos = chaos
		res, err := Run(models.NewHDCSmall, trainDS, testDS, 30, o.onTCP(bound))
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalWeights
	}
	clean := run(nil)
	chaotic := run(&fault.Config{
		Seed:    17,
		Default: fault.LinkFaults{DropRate: 0.02, CorruptRate: 0.02},
	})
	if len(clean) != len(chaotic) {
		t.Fatalf("weight vector lengths differ: %d vs %d", len(clean), len(chaotic))
	}
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("weight %d diverged under chaos: %g != %g", i, chaotic[i], clean[i])
		}
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
