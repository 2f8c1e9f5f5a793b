// Package soak is a randomized chaos soak harness for the training paths'
// fault contract: each seeded trial draws a fault scenario — switch kills,
// mid-stream partitions, lossy links, worker crashes — aims it at a switch
// run or a ring run, all on the TCP plane whose fabric injects the faults,
// and checks the outcome. Where retransmission can repair the fault the
// trial must finish bit-exact with its fault-free reference; where a node
// dies or a port goes silent it must fail closed with its cause, not a
// bare cancellation. Every trial is reproducible from (Seed, trial index).
package soak

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

// Options configure a soak run.
type Options struct {
	Trials int           // randomized trials to run (default 5: one sweep of every kind)
	Seed   int64         // master seed; trial i derives rng(Seed ^ i·0x9E3779B97F4A7C15)
	Budget time.Duration // optional wall-clock budget: stop (cleanly) once exceeded
}

// Trial is the record of one completed trial.
type Trial struct {
	ID      int
	Kind    string
	Desc    string
	Elapsed time.Duration
}

// harness carries the shared datasets and the lazily computed fault-free
// reference the lossy trials compare against.
type harness struct {
	trainDS, testDS data.Dataset
	ringRef         *train.Result // plain in-process ring run
}

const (
	soakIters  = 8 // iterations per trial
	soakSwitch = 4 // switch node id = worker count
)

func soakOptions() train.Options {
	return train.Options{
		Workers:      soakSwitch,
		BatchPerNode: 16,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         42,
		EvalSamples:  64,
	}
}

// tcpOptions are soakOptions for algo on the TCP plane, under the given
// step deadline.
func tcpOptions(algo train.Algorithm, stepTimeout time.Duration) train.Options {
	o := soakOptions()
	o.Algo, o.Plane, o.Bound = algo, train.TCP, fpcodec.MustBound(10)
	o.StepTimeout = stepTimeout
	return o
}

func (h *harness) ring() (*train.Result, error) {
	if h.ringRef == nil {
		o := soakOptions()
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
		if err != nil {
			return nil, fmt.Errorf("fault-free ring reference: %w", err)
		}
		h.ringRef = &res
	}
	return h.ringRef, nil
}

func bitExact(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("weight count %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("weight %d = %g diverged from reference %g", i, got[i], want[i])
		}
	}
	return nil
}

// failedClosedRun runs algo under chaos no retransmission can repair. The
// run must fail, and with its cause — a stall, a transport self-report, a
// protocol violation — not a bare context.Canceled, which names none.
func (h *harness) failedClosedRun(algo train.Algorithm, cfg *fault.Config) error {
	o := tcpOptions(algo, time.Second)
	o.Chaos = cfg
	_, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
	switch {
	case err == nil:
		return fmt.Errorf("run survived an unrecoverable fault")
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("failed with a bare cancellation: %w", err)
	}
	return nil
}

// trialKinds enumerates the scenario generators; trials cycle through
// them so any trial count exercises every kind as evenly as possible.
var trialKinds = []struct {
	kind string
	run  func(h *harness, rng *rand.Rand) (desc string, err error)
}{
	{"switch-kill", func(h *harness, rng *rand.Rand) (string, error) {
		// The switch multicasts soakSwitch frames per iteration; crashing
		// anywhere before the last iteration's multicast leaves the run
		// unfinished.
		frame := uint64(2 + rng.Intn(soakSwitch*(soakIters-2)))
		desc := fmt.Sprintf("switch crash after %d frames", frame)
		return desc + " → failed closed", h.failedClosedRun(train.SwitchReduce, &fault.Config{
			Seed:       rng.Int63(),
			CrashAfter: map[int]uint64{soakSwitch: frame},
		})
	}},
	{"switch-partition", func(h *harness, rng *rand.Rand) (string, error) {
		// Blackhole one worker's up- or downlink mid-run: no transport
		// self-report, the step deadline must end the run.
		w := rng.Intn(soakSwitch)
		link := fault.Link{Src: w, Dst: soakSwitch}
		dir := "uplink"
		if rng.Intn(2) == 1 {
			link = fault.Link{Src: soakSwitch, Dst: w}
			dir = "downlink"
		}
		frame := uint64(1 + rng.Intn(soakIters-2))
		desc := fmt.Sprintf("worker %d %s partitioned from frame %d", w, dir, frame)
		return desc + " → failed closed", h.failedClosedRun(train.SwitchReduce, &fault.Config{
			Seed:  rng.Int63(),
			Links: map[fault.Link]fault.LinkFaults{link: fault.Partition(frame)},
		})
	}},
	{"switch-lossy", func(h *harness, rng *rand.Rand) (string, error) {
		// Recoverable chaos on every link: retransmission must make the
		// lossy wire invisible — same bits as the ring.
		lf := fault.LinkFaults{
			DropRate:    0.01 + 0.04*rng.Float64(),
			CorruptRate: 0.01 + 0.04*rng.Float64(),
			DupRate:     0.02 * rng.Float64(),
			DelayRate:   0.05,
			Delay:       time.Duration(1+rng.Intn(3)) * time.Millisecond,
		}
		desc := fmt.Sprintf("lossy links: drop %.3f corrupt %.3f dup %.3f", lf.DropRate, lf.CorruptRate, lf.DupRate)
		ref, err := h.ring()
		if err != nil {
			return desc, err
		}
		o := tcpOptions(train.SwitchReduce, 15*time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), Default: lf}
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
		if err != nil {
			return desc, fmt.Errorf("lossy run failed: %w", err)
		}
		return desc, bitExact(res.FinalWeights, ref.FinalWeights)
	}},
	{"ring-kill", func(h *harness, rng *rand.Rand) (string, error) {
		// A worker dies mid-run. A ring node sends 2(N−1) frames per
		// iteration; crashing anywhere before the last iteration's leaves
		// the run unfinished, and the ring has no one to route around it.
		victim := rng.Intn(soakSwitch)
		frame := uint64(1 + rng.Intn(2*(soakSwitch-1)*(soakIters-1)))
		desc := fmt.Sprintf("ring: worker %d crashes after %d frames", victim, frame)
		return desc + " → failed closed", h.failedClosedRun(train.Ring, &fault.Config{
			Seed:       rng.Int63(),
			CrashAfter: map[int]uint64{victim: frame},
		})
	}},
	{"ring-lossy", func(h *harness, rng *rand.Rand) (string, error) {
		// Recoverable chaos on every ring link: retransmission must make
		// the lossy wire invisible — same bits as the fault-free ring.
		lf := fault.LinkFaults{
			DropRate:    0.01 + 0.02*rng.Float64(),
			CorruptRate: 0.01 + 0.02*rng.Float64(),
		}
		desc := fmt.Sprintf("ring lossy links: drop %.3f corrupt %.3f", lf.DropRate, lf.CorruptRate)
		ref, err := h.ring()
		if err != nil {
			return desc, err
		}
		o := tcpOptions(train.Ring, 15*time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), Default: lf}
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
		if err != nil {
			return desc, fmt.Errorf("lossy ring run failed: %w", err)
		}
		return desc, bitExact(res.FinalWeights, ref.FinalWeights)
	}},
}

// Run executes o.Trials randomized trials and returns their records. A
// non-nil error means some trial violated its contract; the returned
// slice still holds every trial completed before the failure. logf, when
// non-nil, receives one line per trial.
func Run(o Options, logf func(format string, args ...any)) ([]Trial, error) {
	if o.Trials <= 0 {
		o.Trials = len(trialKinds)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &harness{trainDS: data.NewDigits(4000, 1), testDS: data.NewDigits(500, 99)}
	start := time.Now()
	var trials []Trial
	for i := 0; i < o.Trials; i++ {
		if o.Budget > 0 && time.Since(start) > o.Budget {
			logf("soak: budget %v exhausted after %d/%d trials", o.Budget, i, o.Trials)
			break
		}
		k := trialKinds[i%len(trialKinds)]
		rng := rand.New(rand.NewSource(o.Seed ^ int64(i)*0x1F3779B97F4A7C15))
		t0 := time.Now()
		desc, err := k.run(h, rng)
		tr := Trial{ID: i, Kind: k.kind, Desc: desc, Elapsed: time.Since(t0)}
		trials = append(trials, tr)
		if err != nil {
			logf("soak: trial %d [%s] FAILED (%v): %s: %v", i, k.kind, tr.Elapsed.Round(time.Millisecond), desc, err)
			return trials, fmt.Errorf("trial %d [%s] (seed %d): %s: %w", i, k.kind, o.Seed, desc, err)
		}
		logf("soak: trial %d [%s] ok (%v): %s", i, k.kind, tr.Elapsed.Round(time.Millisecond), desc)
	}
	return trials, nil
}
