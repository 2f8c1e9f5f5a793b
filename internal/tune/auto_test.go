package tune

import (
	"os"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/nic"
	"inceptionn/internal/obs"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
)

// raceEnabled is set by race_on_test.go under `go test -race`. The
// race runtime slows execution ~30× and serializes goroutines, which
// changes the machine the probes measure mid-test — the strict timing
// gate is skipped there (the structural assertions still run).
var raceEnabled bool

func testOptions(workers int) train.Options {
	return train.Options{
		Workers:      workers,
		BatchPerNode: 8,
		Schedule:     opt.StepSchedule{Base: 0.02, Factor: 5, Every: 200},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         42,
	}
}

// TestAutoTuneEndToEnd exercises the whole observe→model→tune loop on
// the in-process fabric: probe runs, fit, ranked plans, an applied
// winner, self-describing meta, gauges. The structural contract is
// asserted on every run; the two timing-based acceptance gates (comm rel
// err ≤ 15% on a pooled holdout; winner within 10% of the brute-force
// best) run only when TUNE_STRICT=1 (set by `make tunetest`) and never
// under -race.
func TestAutoTuneEndToEnd(t *testing.T) {
	o := testOptions(4)
	o.Processor = nic.Processor{Bound: fpcodec.MustBound(10)}
	trainDS, testDS := data.NewDigits(512, 1), data.NewDigits(64, 99)

	res, applied, err := AutoTune(models.NewHDCSmall, trainDS, testDS, o, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit == nil || len(res.Plans) == 0 {
		t.Fatal("AutoTune returned no fit or plans")
	}
	if res.Chosen.PredIterSec <= 0 || res.Chosen.PredIterSec >= inf {
		t.Fatalf("chosen plan pred %v not finite", res.Chosen.PredIterSec)
	}
	if res.ProbeSeconds <= 0 {
		t.Fatal("probe wall time not recorded")
	}
	if res.Workload.Workers != 4 || res.Workload.ModelBytes <= 0 {
		t.Fatalf("probe workload malformed: %+v", res.Workload)
	}
	// The compressed probe must have measured a real ratio (> 1) for the
	// planner's compressed candidates.
	if res.Fit.CodecRate <= 0 || res.Fit.Ratio <= 1 {
		t.Fatalf("compressed probe not fitted: rate=%v ratio=%v", res.Fit.CodecRate, res.Fit.Ratio)
	}

	// The applied options must reflect the chosen plan.
	check := Apply(o, res.Chosen)
	if applied.Algo != check.Algo || applied.ChunkSize != check.ChunkSize ||
		applied.SwitchChunk != check.SwitchChunk || applied.GroupSize != check.GroupSize ||
		applied.Compress != check.Compress {
		t.Fatalf("applied options %+v do not match chosen plan %+v", applied, res.Chosen.PlanOption)
	}

	// The tuned run is self-describing: meta round-trips with the chosen
	// plan, and gauges land on a registry.
	meta := res.MetaFor(res.Workload)
	if meta.Chosen == nil || *meta.Chosen != res.Chosen.PlanOption || meta.Params == nil {
		t.Fatalf("meta incomplete: %+v", meta)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	res.PublishGauges(rec)
	snap := reg.Snapshot()
	for _, want := range []string{"tune_pred_iter_seconds", "tune_fit_sum_rate_bytes_per_s", "tune_strategy_"} {
		found := false
		for name := range snap {
			found = found || strings.HasPrefix(name, want)
		}
		if !found {
			t.Fatalf("gauge %s not published: %v", want, snap)
		}
	}

	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "ranked plans") || !strings.Contains(sb.String(), "what-if") {
		t.Fatal("Render missing sections")
	}

	// Cross-validation on fresh measured runs under the fitted model.
	// Phase means on a loaded CI box wander ±20% between whole runs
	// (scheduler contention scales every µs-granularity channel op in a
	// run together), so the strict gate pools several independent holdout
	// runs into one sample: the pooled trimmed mean measures the
	// machine's typical per-phase cost — the quantity the fit estimates —
	// rather than one run's draw.
	holdoutRun := func() []obs.Span {
		t.Helper()
		vo := o
		vo.Algo = train.Ring
		vo.Processor = nil
		vtr := obs.NewTracer(1 << 17)
		vo.Obs = obs.NewRecorder(obs.NewRegistry(), vtr)
		if _, err := train.Run(models.NewHDCSmall, trainDS, testDS, 24, vo); err != nil {
			t.Fatal(err)
		}
		return vtr.Snapshot()
	}
	validate := func(runs int) float64 {
		t.Helper()
		// Pool runs with each run's warmup iterations stripped, remapped
		// onto one contiguous iteration axis.
		var spans []obs.Span
		for r := 0; r < runs; r++ {
			for _, sp := range holdoutRun() {
				if sp.Iter < 2 {
					continue
				}
				sp.Iter = sp.Iter - 2 + r*22
				spans = append(spans, sp)
			}
		}
		holdout := Sample{
			Workload: Workload{Workers: 4, ModelBytes: res.Workload.ModelBytes, Strategy: "ring", Iters: 22 * runs},
			Spans:    spans,
		}
		cal, maxErr := res.Fit.Validate(holdout)
		if cal == nil {
			t.Fatal("Validate returned no calibration")
		}
		return maxErr
	}

	if os.Getenv("TUNE_STRICT") == "" || raceEnabled {
		maxErr := validate(1)
		t.Logf("holdout comm max |rel err| = %.3f (fit residual %.3f)", maxErr, res.Fit.MaxCommRelErr)
		return
	}
	// Acceptance gate (make tunetest): the fitted model must track the
	// pooled communication phases of independent measured runs within
	// 15%. When the first loop misses, the whole observe→fit→validate
	// loop reruns once from fresh probes — a miss usually means the probe
	// runs sampled an atypical machine state (a background compaction or
	// scheduler burst during the ~1s probe window), and refitting is what
	// a real deployment of the tuner would do.
	maxErr := validate(3)
	t.Logf("pooled holdout comm max |rel err| = %.3f (fit residual %.3f)", maxErr, res.Fit.MaxCommRelErr)
	if maxErr > 0.15 {
		res2, _, err := AutoTune(models.NewHDCSmall, trainDS, testDS, o, AutoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res = res2
		maxErr = validate(3)
		t.Logf("refit pooled holdout comm max |rel err| = %.3f (fit residual %.3f)", maxErr, res.Fit.MaxCommRelErr)
	}
	if maxErr > 0.15 {
		t.Fatalf("pooled holdout comm max |rel err| = %.3f > 0.15", maxErr)
	}

	// Pick quality: brute-force measure every candidate the planner
	// ranked; the tuner's pick must measure within pickSlack of the best.
	const pickSlack = 1.10
	measure := func(p Plan) float64 {
		t.Helper()
		// Min of two runs: the standard robust statistic against
		// run-level scheduler drift.
		const iters = 16
		best := inf
		for attempt := 0; attempt < 2; attempt++ {
			t0 := time.Now()
			if _, err := train.Run(models.NewHDCSmall, trainDS, testDS, iters, Apply(o, p)); err != nil {
				t.Fatalf("candidate %s: %v", p.PlanOption, err)
			}
			best = min(best, time.Since(t0).Seconds()/iters)
		}
		return best
	}
	var bestPlan Plan
	bestSec, chosenSec := inf, inf
	for _, p := range res.Plans {
		sec := measure(p)
		if sec < bestSec {
			bestSec, bestPlan = sec, p
		}
		if p.PlanOption == res.Chosen.PlanOption {
			chosenSec = sec
		}
	}
	if chosenSec == inf {
		t.Fatalf("chosen plan %s not among the ranked candidates", res.Chosen.PlanOption)
	}
	// The top plans are often predicted within 1-2% of each other, so the
	// sweep's min-of-2 can rank them by scheduler noise alone. When the
	// quick ratio misses the gate, re-measure the two contenders head to
	// head, alternating runs so load drift hits both, and gate on the
	// deeper minima.
	if chosenSec/bestSec > pickSlack {
		for round := 0; round < 3; round++ {
			chosenSec = min(chosenSec, measure(res.Chosen))
			bestSec = min(bestSec, measure(bestPlan))
		}
	}
	t.Logf("pick %s measures %.4fs/iter, %.3fx the brute-force best (%s, %.4fs/iter) of %d candidates",
		res.Chosen.PlanOption, chosenSec, chosenSec/bestSec, bestPlan.PlanOption, bestSec, len(res.Plans))
	if chosenSec/bestSec > pickSlack {
		t.Fatalf("pick %s measures %.3fx the brute-force best %s, want ≤ %.2fx",
			res.Chosen.PlanOption, chosenSec/bestSec, bestPlan.PlanOption, pickSlack)
	}
}

// TestAutoTuneNoProcessor checks the degraded loop: with no wire
// processor the probe set is plain-only and compressed candidates are
// excluded from the sweep.
func TestAutoTuneNoProcessor(t *testing.T) {
	o := testOptions(2)
	trainDS, testDS := data.NewDigits(256, 1), data.NewDigits(64, 99)
	res, applied, err := AutoTune(models.NewHDCSmall, trainDS, testDS, o, AutoOptions{ProbeIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Plans {
		if p.Compress {
			t.Fatalf("compressed candidate %s in a processor-less sweep", p.PlanOption)
		}
	}
	if applied.Compress {
		t.Fatal("compression applied without a processor")
	}
	if res.Fit.CodecRate != 0 {
		t.Fatalf("codec fitted without a compressed probe: %v", res.Fit.CodecRate)
	}
}
