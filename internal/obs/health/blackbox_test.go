package health

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"inceptionn/internal/obs"
)

// buildStragglerEngine drives a synthetic 4-node synchronous cohort with
// node 2 straggling, over a real recorder so the flight recorder fills
// with spans, and returns the engine after Close. Wall clocks are
// uniform (the collective equalizes them); the evidence is in the spans:
// the straggler's compute runs 25ms longer, and the recv waits show the
// inversion (the straggler waits least).
func buildStragglerEngine(t *testing.T, dir string) (*Engine, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 12)
	rec := obs.NewRecorder(reg, tr)
	o := testOptions()
	o.BlackboxDir = dir
	e := New(rec, o)
	base := 10 * time.Millisecond
	step := base + 25*time.Millisecond
	for it := 0; it < 20; it++ {
		start := int64(it) * int64(40*time.Millisecond)
		for n := 0; n < 4; n++ {
			extra := int64(0)
			if n == 2 {
				extra = int64(25 * time.Millisecond)
			}
			tr.RecordRaw(n, it, obs.PhaseCompute, start, int64(base)+extra)
			wait := int64(25 * time.Millisecond)
			if n == 2 {
				wait = int64(time.Millisecond)
			}
			tr.RecordRaw(n, it, obs.PhaseRecv, start+int64(base)+extra, wait)
		}
		feedIter(e, it, map[int]time.Duration{0: step, 1: step, 2: step, 3: step})
	}
	e.Close()
	return e, tr
}

func TestBlackboxDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _ := buildStragglerEngine(t, dir)

	incs := e.Incidents()
	var straggler *Incident
	for i := range incs {
		if incs[i].Detector == "straggler" {
			straggler = &incs[i]
		}
	}
	if straggler == nil {
		t.Fatalf("no straggler incident: %+v", incs)
	}
	if straggler.Node != 2 {
		t.Fatalf("straggler blamed node %d, want 2 (%+v)", straggler.Node, straggler)
	}
	if straggler.Blackbox == "" {
		t.Fatal("incident carries no blackbox path")
	}

	// The dump parses fully: meta, the incident, metric snapshots, spans.
	d, err := ReadDumpFile(straggler.Blackbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Metas) != 1 || d.Metas[0].Source != "blackbox" {
		t.Fatalf("metas = %+v, want one blackbox meta", d.Metas)
	}
	if len(d.Incidents) != 1 || d.Incidents[0].Detector != "straggler" {
		t.Fatalf("dump incidents = %+v", d.Incidents)
	}
	if len(d.Snapshots) == 0 {
		t.Fatal("dump carries no metric snapshots")
	}
	if _, ok := d.Snapshots[len(d.Snapshots)-1].Metrics["health_incidents_total"]; !ok {
		t.Fatalf("dump-time snapshot missing engine metrics: %v", d.Snapshots[len(d.Snapshots)-1].Metrics)
	}
	if len(d.Spans) == 0 {
		t.Fatal("dump carries no spans")
	}

	// The same file replays through the plain trace reader — aux lines
	// skipped — and critical-path attribution blames the injected
	// straggler, exactly what `inctrace blame <dump>` runs.
	spans, metas, err := readTraceFile(straggler.Blackbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || len(spans) != len(d.Spans) {
		t.Fatalf("ReadTrace: %d metas %d spans, want 1 and %d", len(metas), len(spans), len(d.Spans))
	}
	r := obs.AttributeCriticalPath(spans, 2*time.Millisecond)
	node, share := r.Gating()
	if node != 2 || share < 0.9 {
		t.Fatalf("dump replay blames node %d share %.2f, want node 2 ≥ 0.9", node, share)
	}
}

func readTraceFile(path string) ([]obs.Span, []obs.TraceMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	doc, err := obs.ReadTrace(f)
	if err != nil {
		return nil, nil, err
	}
	return doc.Spans, doc.Metas, nil
}

func TestOneDumpPerIncident(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.NewTracer(256))
	o := testOptions()
	o.BlackboxDir = dir
	e := New(rec, o)
	e.NotifyFallback(4, 3, "stall", time.Second)
	e.Poll()
	e.Close()
	files, err := filepath.Glob(filepath.Join(dir, "blackbox-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("dumps = %v, want exactly 1", files)
	}
}

// TestDumpCarriesTheTracersTail: a dump's spans are read straight off the
// tracer's ring — everything it retains when that is under blackboxSpans,
// otherwise exactly the newest blackboxSpans — oldest first.
func TestDumpCarriesTheTracersTail(t *testing.T) {
	for _, tc := range []struct{ capacity, recorded, want int }{
		{100, 250, 100},             // a small ring that wrapped
		{2 * blackboxSpans, 40, 40}, // a large ring barely used
		{2 * blackboxSpans, blackboxSpans + 1000, blackboxSpans}, // more retained than one dump carries
	} {
		tr := obs.NewTracer(tc.capacity)
		o := testOptions()
		o.BlackboxDir = t.TempDir()
		e := New(obs.NewRecorder(obs.NewRegistry(), tr), o)
		for i := 0; i < tc.recorded; i++ {
			tr.RecordRaw(i%4, i, obs.PhaseSend, int64(i), 1)
			if i == tc.recorded/2 {
				e.Poll() // a drain mid-way must not change what the dump holds
			}
		}
		e.NotifyFallback(4, tc.recorded, "stall", time.Second)
		incs := e.Incidents()
		if len(incs) != 1 || incs[0].Blackbox == "" {
			t.Fatalf("incidents = %+v, want one with a dump", incs)
		}
		d, err := ReadDumpFile(incs[0].Blackbox)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Spans) != tc.want {
			t.Fatalf("capacity %d, %d recorded: dump holds %d spans, want %d", tc.capacity, tc.recorded, len(d.Spans), tc.want)
		}
		for i, s := range d.Spans {
			if want := tc.recorded - tc.want + i; s.Iter != want {
				t.Fatalf("capacity %d, %d recorded: dump span %d is #%d, want #%d (newest %d, oldest first)",
					tc.capacity, tc.recorded, i, s.Iter, want, tc.want)
			}
		}
	}
}

func TestFlightRecorderBounds(t *testing.T) {
	f := newFlightRecorder(2)
	for i := 0; i < 10; i++ {
		f.addSnap(int64(i), map[string]interface{}{"i": i})
	}
	if snaps := f.snapshots(); len(snaps) != 2 || snaps[1].UnixNs != 9 {
		t.Fatalf("snaps = %+v, want the last 2", f.snapshots())
	}
}
