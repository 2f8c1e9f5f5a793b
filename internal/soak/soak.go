// Package soak is a randomized chaos soak harness for the training paths'
// fault contract: each seeded trial draws a fault scenario — switch kills,
// mid-stream partitions, a dropped or corrupted frame, worker crashes —
// aims it at a switch run or a ring run, all on the TCP plane whose fabric
// injects the faults, and checks the outcome. Nothing repairs a fault:
// every trial must fail closed with its cause, not a bare cancellation.
// Every trial is reproducible from (Seed, trial index).
package soak

import (
	"context"
	"errors"
	"fmt"
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

// harness carries the shared datasets.
type harness struct {
	trainDS, testDS data.Dataset
}

const (
	soakIters  = 8 // iterations per trial
	soakSwitch = 4 // switch node id = worker count
)

// failedClosedRun runs algo on the TCP plane under chaos cfg, with a
// one-second step deadline. The run must fail, and with its cause — a
// stall, a transport self-report, a protocol violation — not a bare
// context.Canceled, which names none. A non-nil want is the cause the
// error must wrap.
func (h *harness) failedClosedRun(algo train.Algorithm, cfg *fault.Config, want error) error {
	o := train.Options{
		Workers:      soakSwitch,
		Algo:         algo,
		BatchPerNode: 16,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         42,
		EvalSamples:  64,
		Plane:        train.TCP,
		Bound:        fpcodec.MustBound(10),
		StepTimeout:  time.Second,
		Chaos:        cfg,
	}
	_, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
	switch {
	case err == nil:
		return fmt.Errorf("run survived its fault")
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("failed with a bare cancellation: %w", err)
	case want != nil && !errors.Is(err, want):
		return fmt.Errorf("failed with %w, want %w", err, want)
	}
	return nil
}

// wireFault spoils frame seq of link with the fault a TCP reader sees: a
// drop (corrupt false) or a bit flipped on the wire.
func wireFault(rng *rand.Rand, link fault.Link, seq uint64, corrupt bool) (*fault.Config, string) {
	lf := fault.LinkFaults{DropRate: 1, From: seq, Until: seq + 1}
	what := "dropped"
	if corrupt {
		lf = fault.LinkFaults{CorruptRate: 1, From: seq, Until: seq + 1}
		what = "corrupted"
	}
	return &fault.Config{Seed: rng.Int63(), Links: map[fault.Link]fault.LinkFaults{link: lf}},
		fmt.Sprintf("link %d->%d frame %d %s", link.Src, link.Dst, seq, what)
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
		}, nil)
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
		}, nil)
	}},
	{"switch-wire", func(h *harness, rng *rand.Rand) (string, error) {
		// One frame of a worker's up- or downlink is dropped or corrupted
		// mid-run. A corrupted frame fails its CRC; a dropped one leaves
		// the switch or the worker waiting for it, so nothing follows it
		// on the link and the step deadline ends the run.
		w := rng.Intn(soakSwitch)
		link := fault.Link{Src: w, Dst: soakSwitch}
		if rng.Intn(2) == 1 {
			link = fault.Link{Src: soakSwitch, Dst: w}
		}
		corrupt := rng.Intn(2) == 1
		cfg, desc := wireFault(rng, link, uint64(1+rng.Intn(soakIters-2)), corrupt)
		var want error = context.DeadlineExceeded
		if corrupt {
			want = fault.ErrBadFrame
		}
		return desc + " → failed closed", h.failedClosedRun(train.SwitchReduce, cfg, want)
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
		}, nil)
	}},
	{"ring-wire", func(h *harness, rng *rand.Rand) (string, error) {
		// One frame of a ring link is dropped or corrupted mid-run. Its
		// sender goes on to its next step, so a later frame follows on the
		// link: the receiver fails closed on the sequence gap or the CRC.
		src := rng.Intn(soakSwitch)
		link := fault.Link{Src: src, Dst: (src + 1) % soakSwitch}
		seq := uint64(1 + rng.Intn(2*(soakSwitch-1)*(soakIters-1)))
		cfg, desc := wireFault(rng, link, seq, rng.Intn(2) == 1)
		return desc + " → failed closed", h.failedClosedRun(train.Ring, cfg, fault.ErrBadFrame)
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
