// Package soak is a randomized chaos soak harness for the fault-tolerant
// training paths: each seeded trial draws a fault scenario — switch
// kills, mid-stream partitions, lossy links, worker crashes — aims it at
// a switch run (self-healing or fail-closed) or an elastic run, all on the
// TCP plane whose fabric injects the faults, and checks the outcome
// against the path's contract. Where the algorithm claims determinism (full membership
// survives, only the switch may die) the trial must finish bit-exact
// with a fault-free ring reference; where membership changes (elastic
// evictions) it must complete with finite weights; where healing is
// disabled it must fail closed with a gradeable error. Every trial is
// reproducible from (Seed, trial index).
package soak

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/mpi"
	"inceptionn/internal/obs"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

// Options configure a soak run.
type Options struct {
	Trials int           // randomized trials to run (default 6: one sweep of every kind)
	Seed   int64         // master seed; trial i derives rng(Seed ^ i·0x9E3779B97F4A7C15)
	Budget time.Duration // optional wall-clock budget: stop (cleanly) once exceeded
}

// Trial is the record of one completed trial.
type Trial struct {
	ID        int
	Kind      string
	Desc      string
	Fallbacks int
	Elapsed   time.Duration
}

// harness carries the shared datasets and the lazily computed fault-free
// references trials compare against.
type harness struct {
	trainDS, testDS data.Dataset
	ringRef         *train.Result // plain in-process ring run (switch-path trials)
	elasticRef      *train.Result // fault-free elastic TCP run (elastic lossy trials)
}

const (
	soakIters        = 8  // switch-path trials
	soakElasticIters = 15 // elastic trials
	soakSwitch       = 4  // switch node id = worker count
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

// tcpOptions are soakOptions on the TCP plane, under the given recovery
// and step deadline.
func tcpOptions(recovery train.Recovery, stepTimeout time.Duration) train.Options {
	o := soakOptions()
	o.Plane, o.Bound = train.TCP, fpcodec.MustBound(10)
	o.Recovery, o.StepTimeout = recovery, stepTimeout
	return o
}

// switchOptions are tcpOptions for the switch collective.
func switchOptions(recovery train.Recovery, stepTimeout time.Duration) train.Options {
	o := tcpOptions(recovery, stepTimeout)
	o.Algo = train.SwitchReduce
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

func (h *harness) elastic() (*train.Result, error) {
	if h.elasticRef == nil {
		o := tcpOptions(train.Elastic, 20*time.Second)
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakElasticIters, o)
		if err != nil {
			return nil, fmt.Errorf("fault-free elastic reference: %w", err)
		}
		h.elasticRef = &res
	}
	return h.elasticRef, nil
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

func finiteWeights(w []float32) error {
	if len(w) == 0 {
		return fmt.Errorf("run produced no weights")
	}
	for i, v := range w {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("weight %d is %g", i, v)
		}
	}
	return nil
}

// healedSwitchRun runs a self-healing switch run under the given chaos and
// checks the healed result against the ring reference, and the run's own
// record of the fallback against its result.
func (h *harness) healedSwitchRun(cfg *fault.Config, wantFallback bool) (int, string, error) {
	ref, err := h.ring()
	if err != nil {
		return 0, "", err
	}
	o := switchOptions(train.SwitchFallback, 5*time.Second)
	o.Chaos = cfg
	o.Obs = obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(1<<14))

	res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
	if err != nil {
		return 0, "", fmt.Errorf("healed run failed: %w", err)
	}
	if wantFallback && res.Fallbacks != 1 {
		return res.Fallbacks, res.FallbackCause, fmt.Errorf("fallbacks = %d, want 1", res.Fallbacks)
	}
	if !wantFallback && res.Fallbacks != 0 {
		return res.Fallbacks, res.FallbackCause, fmt.Errorf("spurious fallback: %s", res.FallbackCause)
	}
	if err := checkFallbackRecord(o.Obs, res.Fallbacks); err != nil {
		return res.Fallbacks, res.FallbackCause, err
	}
	return res.Fallbacks, res.FallbackCause, bitExact(res.FinalWeights, ref.FinalWeights)
}

// checkFallbackRecord asserts that a healed switch run's metrics and
// trace name what its Result reports: the collective_fallbacks counter
// equals the confirmed fallbacks, and each has one fallback span charged
// to the switch. This is the post-mortem verdict `inctrace blame` and
// /metrics give an operator.
func checkFallbackRecord(rec *obs.Recorder, fallbacks int) error {
	if c := rec.Registry().Counter("collective_fallbacks").Value(); c != int64(fallbacks) {
		return fmt.Errorf("collective_fallbacks = %d for %d confirmed fallback(s)", c, fallbacks)
	}
	spans := 0
	for _, s := range rec.Tracer().Snapshot() {
		if s.Phase != obs.PhaseFallback {
			continue
		}
		if s.Node != soakSwitch {
			return fmt.Errorf("fallback span charged to node %d, want the switch (%d)", s.Node, soakSwitch)
		}
		spans++
	}
	if spans != fallbacks {
		return fmt.Errorf("%d fallback span(s) for %d confirmed fallback(s)", spans, fallbacks)
	}
	return nil
}

// trialKinds enumerates the scenario generators; trials cycle through
// them so any trial count exercises every kind as evenly as possible.
var trialKinds = []struct {
	kind string
	run  func(h *harness, rng *rand.Rand) (desc string, fallbacks int, err error)
}{
	{"switch-kill", func(h *harness, rng *rand.Rand) (string, int, error) {
		// The switch multicasts soakSwitch frames per iteration; crashing
		// anywhere before the last iteration's multicast guarantees a trip.
		frame := uint64(2 + rng.Intn(soakSwitch*(soakIters-2)))
		desc := fmt.Sprintf("switch crash after %d frames", frame)
		fb, cause, err := h.healedSwitchRun(&fault.Config{
			Seed:       rng.Int63(),
			CrashAfter: map[int]uint64{soakSwitch: frame},
		}, true)
		return desc + " → " + cause, fb, err
	}},
	{"switch-partition", func(h *harness, rng *rand.Rand) (string, int, error) {
		// Blackhole one worker's up- or downlink mid-run: no transport
		// self-report, detection must come from stall grading.
		w := rng.Intn(soakSwitch)
		link := fault.Link{Src: w, Dst: soakSwitch}
		dir := "uplink"
		if rng.Intn(2) == 1 {
			link = fault.Link{Src: soakSwitch, Dst: w}
			dir = "downlink"
		}
		frame := uint64(1 + rng.Intn(soakIters-2))
		desc := fmt.Sprintf("worker %d %s partitioned from frame %d", w, dir, frame)
		fb, cause, err := h.healedSwitchRun(&fault.Config{
			Seed:  rng.Int63(),
			Links: map[fault.Link]fault.LinkFaults{link: fault.Partition(frame)},
		}, true)
		return desc + " → " + cause, fb, err
	}},
	{"switch-lossy", func(h *harness, rng *rand.Rand) (string, int, error) {
		// Recoverable chaos on every link: retransmission must make the
		// lossy wire invisible — same bits, no fallback.
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
			return desc, 0, err
		}
		o := switchOptions(train.SwitchFallback, 15*time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), Default: lf}
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
		if err != nil {
			return desc, 0, fmt.Errorf("lossy run failed: %w", err)
		}
		if res.Fallbacks != 0 {
			return desc, res.Fallbacks, fmt.Errorf("recoverable loss tripped the fallback: %s", res.FallbackCause)
		}
		return desc, 0, bitExact(res.FinalWeights, ref.FinalWeights)
	}},
	{"switch-kill-unarmed", func(h *harness, rng *rand.Rand) (string, int, error) {
		// Healing disabled: the same kill must fail closed with an error
		// the switch fault grader recognizes.
		frame := uint64(2 + rng.Intn(soakSwitch*(soakIters-2)))
		desc := fmt.Sprintf("unarmed switch crash after %d frames", frame)
		o := switchOptions(train.FailClosed, time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), CrashAfter: map[int]uint64{soakSwitch: frame}}
		_, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakIters, o)
		if err == nil {
			return desc, 0, fmt.Errorf("unarmed run healed itself")
		}
		if class, _ := mpi.GradeSwitchFault(err); !class.Hard() && class != mpi.SwitchFaultStall {
			return desc, 0, fmt.Errorf("ungradeable failure (%v): %w", class, err)
		}
		return desc + " → failed closed", 0, nil
	}},
	{"elastic-crash", func(h *harness, rng *rand.Rand) (string, int, error) {
		// A worker dies mid-run: the survivors must evict it and
		// finish with finite weights (membership changed, so no bit-exact
		// claim against the full ring).
		victim := rng.Intn(soakSwitch)
		frame := uint64(10 + rng.Intn(50))
		desc := fmt.Sprintf("elastic: worker %d crashes after %d frames", victim, frame)
		o := tcpOptions(train.Elastic, 20*time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), CrashAfter: map[int]uint64{victim: frame}}
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakElasticIters, o)
		if err != nil {
			return desc, 0, fmt.Errorf("survivors failed: %w", err)
		}
		return desc, 0, finiteWeights(res.FinalWeights)
	}},
	{"elastic-lossy", func(h *harness, rng *rand.Rand) (string, int, error) {
		// Recoverable chaos under the elastic runner: nobody may be
		// evicted and the result must match the fault-free elastic run.
		lf := fault.LinkFaults{
			DropRate:    0.01 + 0.02*rng.Float64(),
			CorruptRate: 0.01 + 0.02*rng.Float64(),
		}
		desc := fmt.Sprintf("elastic lossy links: drop %.3f corrupt %.3f", lf.DropRate, lf.CorruptRate)
		ref, err := h.elastic()
		if err != nil {
			return desc, 0, err
		}
		o := tcpOptions(train.Elastic, 20*time.Second)
		o.Chaos = &fault.Config{Seed: rng.Int63(), Default: lf}
		res, err := train.Run(models.NewHDCSmall, h.trainDS, h.testDS, soakElasticIters, o)
		if err != nil {
			return desc, 0, fmt.Errorf("lossy elastic run failed: %w", err)
		}
		return desc, 0, bitExact(res.FinalWeights, ref.FinalWeights)
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
		desc, fallbacks, err := k.run(h, rng)
		tr := Trial{ID: i, Kind: k.kind, Desc: desc, Fallbacks: fallbacks, Elapsed: time.Since(t0)}
		trials = append(trials, tr)
		if err != nil {
			logf("soak: trial %d [%s] FAILED (%v): %s: %v", i, k.kind, tr.Elapsed.Round(time.Millisecond), desc, err)
			return trials, fmt.Errorf("trial %d [%s] (seed %d): %s: %w", i, k.kind, o.Seed, desc, err)
		}
		logf("soak: trial %d [%s] ok (%v): %s", i, k.kind, tr.Elapsed.Round(time.Millisecond), desc)
	}
	return trials, nil
}
