package train

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

// TestSwitchTCPFallbackOnSwitchKill kills the switch node mid-run over
// real sockets: the run must trip the fallback, finish on the ring band,
// and still match the uninterrupted ring reference bit for bit.
func TestSwitchTCPFallbackOnSwitchKill(t *testing.T) {
	const iters = 8
	ref := ringReference(t, iters)
	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = 5 * time.Second
	o.Chaos = &fault.Config{Seed: 11, CrashAfter: map[int]uint64{o.Workers: 10}}
	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	if max := 2 * o.StepTimeout.Seconds(); res.FallbackDetectSeconds > max {
		t.Errorf("detection latency %.3fs exceeds 2×StepTimeout (%.1fs)", res.FallbackDetectSeconds, max)
	}
	assertBitIdentical(t, res, ref)
}

// TestSwitchTCPFallbackTraceMetaAligns pins the trace-header contract on
// the socket path: a TCP switch run that trips the ring fallback must
// still write a trace whose trace_meta line carries a real epoch, so
// obs.Merge aligns it on that epoch, and the run's counter and trace must
// name the fallback and the dead switch.
func TestSwitchTCPFallbackTraceMetaAligns(t *testing.T) {
	trainDS, testDS := digitsData()
	o := healOptions()
	o.StepTimeout = 5 * time.Second
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 15)
	o.Obs = obs.NewRecorder(reg, tracer)
	o.Chaos = &fault.Config{Seed: 11, CrashAfter: map[int]uint64{o.Workers: 10}}

	res, err := Run(models.NewHDCSmall, trainDS, testDS, 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (cause %q)", res.Fallbacks, res.FallbackCause)
	}
	if c := reg.Counter("collective_fallbacks").Value(); c != 1 {
		t.Fatalf("collective_fallbacks = %d, want 1", c)
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
	if n := len(tracer.Snapshot()); len(m.Spans) != n {
		t.Fatalf("merged %d spans, trace held %d", len(m.Spans), n)
	}
	var fallbacks []int
	for _, s := range m.Spans {
		if s.Phase == obs.PhaseFallback {
			fallbacks = append(fallbacks, s.Node)
		}
	}
	if len(fallbacks) != 1 || fallbacks[0] != o.Workers {
		t.Errorf("fallback spans on nodes %v, want one on the switch (%d)", fallbacks, o.Workers)
	}
}
