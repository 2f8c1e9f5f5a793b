package train

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
	"inceptionn/internal/obs/health"
	"inceptionn/internal/opt"
)

// healthOptions tunes the engine for short test runs: two warmup
// iterations, two strikes to confirm, and a 10ms deviation gate that
// loopback scheduling jitter cannot reach but the injected 25ms faults
// clear with room to spare.
func healthOptions(dir string) health.Options {
	return health.Options{
		Warmup:      2,
		Consecutive: 2,
		MinStepGap:  10 * time.Millisecond,
		BlackboxDir: dir,
	}
}

// TestHealthStragglerOpensOneIncident is the PR's acceptance run: the
// same injected-straggler TCP ring as TestBlameFindsInjectedStraggler,
// but judged online — the streaming engine must open exactly one
// incident, name the straggler and its compute phase, and leave behind a
// black-box dump whose replay through the critical-path attribution
// (what `inctrace incidents -replay` runs) blames the same node.
func TestHealthStragglerOpensOneIncident(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(obs.NewRegistry(), tracer)
	o.StepTimeout = 30 * time.Second
	const slow = 2
	// 60ms: the dump replay judges only the flight recorder's window
	// around the incident (the run's earliest, noisiest iterations), and
	// under -race scheduler noise reaches tens of ms — the injection must
	// dwarf it inside that short window too.
	o.Straggler = map[int]time.Duration{slow: 60 * time.Millisecond}

	dir := t.TempDir()
	e := health.New(o.Obs, healthOptions(dir))
	o.Health = e

	if _, err := RunRingTCP(models.NewHDCSmall, trainDS, testDS, 20, o, fpcodec.MustBound(10)); err != nil {
		t.Fatal(err)
	}
	e.Close()

	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want exactly 1: %+v", len(incs), incs)
	}
	inc := incs[0]
	if inc.Detector != "straggler" || inc.Node != slow {
		t.Fatalf("incident = %s on node %d, want straggler on node %d (%+v)", inc.Detector, inc.Node, slow, inc)
	}
	if inc.Phase != obs.PhaseCompute {
		t.Errorf("incident phase = %s, want compute (the injected delay sleeps inside the compute span)", inc.Phase)
	}
	if inc.ClosedNs != 0 {
		t.Errorf("incident closed at %d despite the straggler never recovering", inc.ClosedNs)
	}
	if inc.Blackbox == "" {
		t.Fatal("incident carries no black-box dump path")
	}

	// The dump replays through the stock trace reader and blames the
	// injected culprit with ≥90% of attributed iterations.
	f, err := os.Open(inc.Blackbox)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	spans, metas := doc.Spans, doc.Metas
	if len(metas) != 1 || len(spans) == 0 {
		t.Fatalf("dump replay: %d metas, %d spans", len(metas), len(spans))
	}
	r := obs.AttributeCriticalPath(spans, 2*time.Millisecond)
	if node, share := r.Gating(); node != slow || share < 0.9 {
		t.Fatalf("dump replay blames node %d share %.2f, want node %d ≥ 0.90", node, share, slow)
	}
}

// TestHealthSwitchStallOpensFallbackIncident: a switch that dies
// silently mid-multicast (no transport self-report, detection via the
// step-deadline stall grading) must surface as exactly one critical
// fallback incident naming the switch, with a dump whose replay also
// gates on the switch. (A partitioned worker uplink is deliberately NOT
// used here: post-fallback that worker stays genuinely degraded and the
// straggler detector correctly opens a second incident for it.)
func TestHealthSwitchStallOpensFallbackIncident(t *testing.T) {
	trainDS, testDS := digitsData()
	o := healOptions()
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(obs.NewRegistry(), tracer)
	swID := o.Workers
	// Dying after 10 down-frames kills the switch partway through
	// iteration 2's multicast — the workers see silence, not an error.
	o.Chaos = &fault.Config{Seed: 5, CrashAfter: map[int]uint64{swID: 10}}

	dir := t.TempDir()
	ho := healthOptions(dir)
	// The incident under test is pushed (NotifyFallback), not inferred
	// from latency — so gate the latency detectors far above scheduling
	// noise: with the whole suite saturating the host, the post-fallback
	// ring's first iterations can show transient >10ms recv-wait
	// inversions that would (correctly, but flakily) page.
	ho.MinStepGap = 100 * time.Millisecond
	e := health.New(o.Obs, ho)
	o.Health = e

	res, err := Run(models.NewHDCSmall, trainDS, testDS, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	e.Close()

	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want exactly 1: %+v", len(incs), incs)
	}
	inc := incs[0]
	if inc.Detector != "fallback" || inc.Node != swID {
		t.Fatalf("incident = %s on node %d, want fallback on the switch (%d): %+v", inc.Detector, inc.Node, swID, inc)
	}
	if inc.Phase != obs.PhaseFallback || inc.Severity != health.SevCritical {
		t.Errorf("incident phase/severity = %s/%s, want fallback/critical", inc.Phase, inc.Severity)
	}
	if inc.ClosedNs != inc.OpenedNs {
		t.Errorf("fallback should be a point incident, got open %d close %d", inc.OpenedNs, inc.ClosedNs)
	}
	if inc.Blackbox == "" {
		t.Fatal("incident carries no black-box dump path")
	}

	d, err := health.ReadDumpFile(inc.Blackbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) == 0 {
		t.Fatal("dump carries no pre-incident spans")
	}
	// The fallback span overrides gating, so the replay names the switch.
	r := obs.AttributeCriticalPath(d.Spans, 2*time.Millisecond)
	if r.GatingCount[swID] < 1 {
		t.Errorf("dump replay never blames the switch: %v", r.GatingCount)
	}
}

// TestHealthCleanRunOpensNoIncidents: the same ring over a clean fabric
// must stay silent — zero incidents, zero dumps, a healthy status.
func TestHealthCleanRunOpensNoIncidents(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Obs = obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(1<<15))
	o.StepTimeout = 30 * time.Second

	dir := t.TempDir()
	ho := healthOptions(dir)
	// Same latency-detector headroom as the stall test: the guard is
	// about false positives from the engine's counter/rate/point paths,
	// not about paging on suite-load scheduling jitter.
	ho.MinStepGap = 100 * time.Millisecond
	e := health.New(o.Obs, ho)
	e.Start(50 * time.Millisecond) // exercise the background poller too
	o.Health = e

	if _, err := RunRingTCP(models.NewHDCSmall, trainDS, testDS, 12, o, fpcodec.MustBound(10)); err != nil {
		t.Fatal(err)
	}
	e.Close()

	if incs := e.Incidents(); len(incs) != 0 {
		t.Fatalf("clean run opened %d incident(s): %+v", len(incs), incs)
	}
	if !e.Healthy() {
		t.Error("clean run reports unhealthy")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("clean run wrote black-box dumps: %v", files)
	}
}

// TestHealthSwitchTCPFallbackTraceMetaAligns pins the trace-header
// contract on the socket path: a RunSwitchTCP run that trips the ring
// fallback must still write a trace whose trace_meta line carries a real
// epoch, so obs.Merge aligns it on that epoch — and the
// engine attached to the same run must report the fallback.
func TestHealthSwitchTCPFallbackTraceMetaAligns(t *testing.T) {
	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = 5 * time.Second
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(obs.NewRegistry(), tracer)
	o.Chaos = &fault.Config{Seed: 11, CrashAfter: map[int]uint64{o.Workers: 10}}

	// Default detector options except the latency gate, widened so
	// suite-load jitter on the post-fallback ring cannot add a second
	// (transient, self-closing) incident next to the fallback.
	e := health.New(o.Obs, health.Options{MinStepGap: 100 * time.Millisecond})
	o.Health = e

	res, err := RunSwitchTCP(models.NewHDCSmall, trainDS, testDS, 8, o, fpcodec.MustBound(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	e.Close()
	if incs := e.Incidents(); len(incs) != 1 || incs[0].Detector != "fallback" || incs[0].Node != o.Workers {
		t.Fatalf("TCP fallback incidents = %+v, want one fallback naming the switch", incs)
	}

	path := filepath.Join(t.TempDir(), "switch_tcp.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	doc, err := func() (*obs.Trace, error) {
		r, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return obs.ReadTrace(r)
	}()
	if err != nil {
		t.Fatal(err)
	}
	spans, metas := doc.Spans, doc.Metas
	if len(metas) != 1 || metas[0].Version != 1 || metas[0].EpochUnixNs == 0 {
		t.Fatalf("trace_meta = %+v, want version 1 with a nonzero epoch", metas)
	}
	sawFallback := false
	for _, s := range spans {
		if s.Phase == obs.PhaseFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("TCP fallback path recorded no fallback span")
	}

	src, err := obs.FileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.Merge(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sources) != 1 || !m.Sources[0].Aligned {
		t.Fatalf("merge sources = %+v, want the trace aligned on its meta epoch", m.Sources)
	}
	if len(m.Spans) != len(spans) {
		t.Fatalf("merged %d spans, trace held %d", len(m.Spans), len(spans))
	}
}

// BenchmarkHealthOverhead quantifies the health-engine tax: the same
// end-to-end ring training run with the recorder attached in both
// variants, plus a live streaming health engine (detectors + flight
// recorder + background poller) in the second. 25 iterations per op:
// long enough that the 4-goroutine lockstep's scheduling jitter averages
// out. Ungated: on a 2-core box the pair's run-to-run spread exceeds the
// engine's cost (the last checked-in pair read -2.5%).
func BenchmarkHealthOverhead(b *testing.B) {
	trainDS := data.NewDigits(1024, 7)
	testDS := data.NewDigits(128, 8)
	base := func() Options {
		return Options{
			Workers:      4,
			Algo:         Ring,
			BatchPerNode: 16,
			Schedule:     opt.StepSchedule{Base: 0.02},
			Momentum:     0.9,
			Seed:         42,
			EvalSamples:  64,
			ChunkSize:    4096,
			Obs:          obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(1<<16)),
		}
	}
	b.Run("healthOff", func(b *testing.B) {
		o := base()
		for i := 0; i < b.N; i++ {
			if _, err := Run(models.NewHDCSmall, trainDS, testDS, 25, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("healthOn", func(b *testing.B) {
		o := base()
		// A fresh engine per run so every run's iterations are analyzed
		// in full (the engine skips already-analyzed iteration indices),
		// and Close's tail drain is part of the measured cost.
		for i := 0; i < b.N; i++ {
			e := health.New(o.Obs, health.Options{})
			e.Start(100 * time.Millisecond)
			o.Health = e
			_, err := Run(models.NewHDCSmall, trainDS, testDS, 25, o)
			e.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
