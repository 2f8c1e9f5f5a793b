package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines —
// concurrent creation of the same names plus concurrent handle use —
// and checks the totals. Run under -race this is the concurrency-safety
// proof for the metric hot paths.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("shared_counter").Add(1)
				reg.Gauge("shared_gauge").Set(float64(g))
				reg.Histogram("shared_hist").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("shared_counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Histogram("shared_hist").count.Load(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	gv := reg.Gauge("shared_gauge").Value()
	if gv < 0 || gv >= goroutines {
		t.Errorf("gauge = %v, want a goroutine id in [0,%d)", gv, goroutines)
	}
}

// TestNilSafety verifies the entire disabled path: a nil recorder and
// the nil handles it yields must all be no-ops, not panics.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.Span(0, 0, PhaseCompute).End()
	r.Span(0, 0, PhaseSend).EndWith(time.Second)
	r.RecordRaw(0, 0, PhaseRecv, 0, 1)
	var reg *Registry
	if reg.Counter("x") != nil || reg.Snapshot() != nil {
		t.Error("nil registry should yield nil handles")
	}
	var tr *Tracer
	if tr.Snapshot() != nil {
		t.Error("nil tracer should be empty")
	}
	// Half-enabled recorders.
	NewRecorder(NewRegistry(), nil).Span(0, 0, PhaseCompute).End()
	NewRecorder(nil, NewTracer(4)).Counter("x").Add(1)
}

// TestTracerWraparound fills a small ring past capacity and checks that
// Snapshot returns exactly the last cap spans, oldest first.
func TestTracerWraparound(t *testing.T) {
	const capacity = 8
	const total = 27 // not a multiple of capacity, to land mid-ring
	tr := NewTracer(capacity)
	base := time.Now()
	for i := 0; i < total; i++ {
		tr.record(0, i, PhaseCompute, base.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	snap := tr.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), capacity)
	}
	for i, s := range snap {
		want := total - capacity + i
		if s.Iter != want {
			t.Errorf("snap[%d].Iter = %d, want %d (oldest-first order broken)", i, s.Iter, want)
		}
	}
}

// TestTracerJSONLRoundTrip streams a trace and parses it back.
func TestTracerJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	base := time.Now()
	for i := 0; i < 5; i++ {
		tr.record(i%2, i, Phase(i%int(NumPhases)), base.Add(time.Duration(i)*time.Millisecond), 2*time.Millisecond)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"phase":"compute"`) {
		t.Errorf("JSONL should name phases, got: %s", buf.String())
	}
	doc, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := doc.Spans
	want := tr.Snapshot()
	if len(spans) != len(want) {
		t.Fatalf("round trip: %d spans, want %d", len(spans), len(want))
	}
	for i := range spans {
		if spans[i] != want[i] {
			t.Errorf("span %d: %+v != %+v", i, spans[i], want[i])
		}
	}
}

// TestReadSpansBadLine checks the reader reports line numbers, and that a
// span of a retired phase fails closed rather than reading as another.
func TestReadSpansBadLine(t *testing.T) {
	const good = `{"node":0,"iter":0,"phase":"compute","start_ns":0,"dur_ns":10}` + "\n"
	for _, tc := range []struct{ line, want string }{
		{"not json", "line 2"},
		{`{"node":2,"iter":8,"phase":"fallback","start_ns":0,"dur_ns":1}`, `obs: trace line 2: obs: unknown phase "fallback"`},
	} {
		_, err := ReadTrace(strings.NewReader(good + tc.line))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error containing %q, got %v", tc.line, tc.want, err)
		}
	}
}

func TestPhaseRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v,%v", p.String(), got, ok)
		}
	}
	if _, ok := ParsePhase("bogus"); ok {
		t.Error("ParsePhase should reject unknown names")
	}
}

// TestHistogramBounds checks bucketing, overflow and snapshot shape.
func TestHistogramBounds(t *testing.T) {
	h := newHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Microsecond)       // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive bound)
	h.Observe(100 * time.Millisecond) // bucket 1
	h.Observe(time.Minute)            // overflow
	h.Observe(-time.Second)           // clamped to 0 → bucket 0
	s := h.snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if s.MaxSeconds != 60 {
		t.Errorf("max = %v, want 60", s.MaxSeconds)
	}
	var n int64
	for _, b := range s.Buckets {
		n += b.N
	}
	if n+s.Overflow != s.Count {
		t.Errorf("bucket sum %d + overflow %d != count %d", n, s.Overflow, s.Count)
	}
}

// TestSnapshotRoundTrip: a counter, a Func gauge and a histogram reach
// the saved record. The bytes are json.Marshal(reg.Snapshot()), what
// `inctrain -metrics-out` writes (it relies on Func gauges for the
// fpcodec_* totals); they decode with ParseSnapshot and render with
// RenderMetrics, as `inctrace metrics` does.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, nil)
	rec.Counter("wire_bytes_compressed").Add(1234)
	reg.Func("codec_values", func() float64 { return 42 })
	rec.Histogram("ring_step_seconds").Observe(3 * time.Millisecond)

	body, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap["wire_bytes_compressed"].(float64); v != 1234 {
		t.Errorf("wire_bytes_compressed = %v, want 1234", snap["wire_bytes_compressed"])
	}
	if v, _ := snap["codec_values"].(float64); v != 42 {
		t.Errorf("codec_values = %v, want 42", snap["codec_values"])
	}
	if h, _ := snap["ring_step_seconds"].(map[string]interface{}); h["count"] != 1.0 {
		t.Errorf("ring_step_seconds = %v, want a histogram of count 1", snap["ring_step_seconds"])
	}
	var buf bytes.Buffer
	RenderMetrics(&buf, snap)
	for _, want := range []string{
		"wire_bytes_compressed                    1234\n",
		"codec_values                             42\n",
		"ring_step_seconds                        count=1 ",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("RenderMetrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSnapshotKeepsNonFiniteGauges: a diverged run's NaN train_loss and an
// infinite Func gauge must not cost the record. They are saved as the
// strings "NaN" and "+Inf", read back as numbers and rendered by name.
func TestSnapshotKeepsNonFiniteGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("train_loss").Set(math.NaN())
	reg.Func("codec_ratio", func() float64 { return math.Inf(1) })
	reg.Func("drift", func() float64 { return math.Inf(-1) })
	reg.Gauge("train_accuracy").Set(0.25)

	body, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap["train_loss"].(float64); !math.IsNaN(v) {
		t.Errorf("train_loss = %v, want NaN", snap["train_loss"])
	}
	if v, _ := snap["codec_ratio"].(float64); !math.IsInf(v, 1) {
		t.Errorf("codec_ratio = %v, want +Inf", snap["codec_ratio"])
	}
	if v, _ := snap["drift"].(float64); !math.IsInf(v, -1) {
		t.Errorf("drift = %v, want -Inf", snap["drift"])
	}
	var buf bytes.Buffer
	RenderMetrics(&buf, snap)
	for _, want := range []string{
		"codec_ratio                              +Inf\n",
		"drift                                    -Inf\n",
		"train_accuracy                           0.2500\n",
		"train_loss                               NaN\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("RenderMetrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestHistogramQuantilesStayInBucket: a quantile lies inside the bucket
// holding its rank, between the bucket's true lower bound and the smaller
// of its upper bound and the observed max. Ten 12ms observations sit in
// (10ms, 20ms] with max 12ms, so p50, p90 and p99 lie in [10ms, 12ms];
// the same holds in the overflow bucket above the last bound.
func TestHistogramQuantilesStayInBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("step_seconds")
	for i := 0; i < 10; i++ {
		h.Observe(12 * time.Millisecond)
	}
	s := h.snapshot()
	for _, q := range []float64{s.P50Seconds, s.P90Seconds, s.P99Seconds} {
		if q < 0.010 || q > 0.012 {
			t.Errorf("quantiles p50=%g p90=%g p99=%g, want each in [0.010, 0.012] (max %g)",
				s.P50Seconds, s.P90Seconds, s.P99Seconds, s.MaxSeconds)
			break
		}
	}

	// One observation in a low bucket, one past the last bound: p99 sits
	// in the overflow bucket, between the last bound and the max.
	o := newHistogram([]time.Duration{time.Millisecond, time.Second})
	o.Observe(500 * time.Microsecond)
	o.Observe(3 * time.Second)
	so := o.snapshot()
	if so.P99Seconds < 1 || so.P99Seconds > 3 {
		t.Errorf("overflow p99 = %g, want in [1, 3]", so.P99Seconds)
	}
	if so.P50Seconds < 0 || so.P50Seconds > 0.001 {
		t.Errorf("p50 = %g, want in [0, 0.001]", so.P50Seconds)
	}
}

// TestAggregateAndRender builds a synthetic 2-node trace and checks the
// breakdown math plus that both renderers produce the expected shape.
func TestAggregateAndRender(t *testing.T) {
	mk := func(node, iter int, p Phase, startMs, durMs int64) Span {
		return Span{Node: node, Iter: iter, Phase: p, Start: startMs * 1e6, Dur: durMs * 1e6}
	}
	spans := []Span{
		mk(0, 0, PhaseCompute, 0, 30),
		mk(0, 0, PhaseSend, 30, 10),
		mk(0, 1, PhaseCompute, 40, 30),
		mk(1, 0, PhaseCompute, 0, 20),
		mk(1, 0, PhaseRecv, 20, 40),
	}
	b := Aggregate(spans)
	if len(b.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(b.Nodes))
	}
	n0 := b.Nodes[0]
	if n0.Node != 0 || n0.Phase[PhaseCompute] != 60*time.Millisecond || n0.Phase[PhaseSend] != 10*time.Millisecond {
		t.Errorf("node0 breakdown wrong: %+v", n0)
	}
	if n0.Iters != 2 {
		t.Errorf("node0 iters = %d, want 2", n0.Iters)
	}
	if b.Nodes[1].Comm() != 40*time.Millisecond {
		t.Errorf("node1 comm = %v, want 40ms", b.Nodes[1].Comm())
	}
	if b.Wall() != 70*time.Millisecond {
		t.Errorf("wall = %v, want 70ms", b.Wall())
	}

	var tbl bytes.Buffer
	b.RenderTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"node", "compute", "send", "comm%", "trace wall clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	var tl bytes.Buffer
	RenderTimeline(&tl, spans, 40)
	lines := strings.Split(strings.TrimSpace(tl.String()), "\n")
	if len(lines) != 3 { // header + 2 node rows
		t.Fatalf("timeline has %d lines, want 3:\n%s", len(lines), tl.String())
	}
	if !strings.Contains(lines[1], "c") || !strings.Contains(lines[2], "r") {
		t.Errorf("timeline glyphs wrong:\n%s", tl.String())
	}
	for p := Phase(0); p < NumPhases; p++ {
		if key := string(timelineChars[p]) + "=" + p.String(); !strings.Contains(lines[0], key) {
			t.Errorf("timeline legend does not name %q:\n%s", key, lines[0])
		}
	}
}

// TestRenderMetrics smoke-tests the CLI snapshot printer on a snapshot
// that went through the JSON round trip a saved -metrics-out file takes.
func TestRenderMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tcp_retransmits").Add(3)
	reg.Gauge("compression_ratio").Set(2.5)
	reg.Histogram("ring_step_seconds").Observe(time.Millisecond)
	body, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderMetrics(&buf, snap)
	out := buf.String()
	for _, want := range []string{"tcp_retransmits", "compression_ratio", "2.5000", "ring_step_seconds", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderMetrics missing %q:\n%s", want, out)
		}
	}
}

// TestRenderTimelineDegenerateWidths: widths below the 10-bucket floor
// (0, 1, negative) clamp up rather than divide by zero, even when the
// trace holds more spans than buckets; empty and zero-duration traces
// render nothing at all.
func TestRenderTimelineDegenerateWidths(t *testing.T) {
	tr := NewTracer(256)
	// 20 spans per node — more spans than the clamped 10 buckets.
	for it := 0; it < 20; it++ {
		start := int64(it) * int64(time.Millisecond)
		tr.RecordRaw(0, it, PhaseCompute, start, int64(time.Millisecond))
		tr.RecordRaw(1, it, PhaseRecv, start, int64(time.Millisecond))
	}
	spans := tr.Snapshot()

	for _, width := range []int{0, 1, 9, -5} {
		var buf bytes.Buffer
		RenderTimeline(&buf, spans, width)
		out := buf.String()
		if !strings.Contains(out, "10 buckets") {
			t.Errorf("width %d: want clamp to 10 buckets, got:\n%s", width, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "node ") {
				continue
			}
			lo, hi := strings.IndexByte(line, '|'), strings.LastIndexByte(line, '|')
			if hi-lo-1 != 10 {
				t.Errorf("width %d: row has %d cells, want 10: %q", width, hi-lo-1, line)
			}
		}
	}

	var buf bytes.Buffer
	RenderTimeline(&buf, nil, 0)
	if buf.Len() != 0 {
		t.Errorf("empty trace rendered output: %q", buf.String())
	}
	buf.Reset()
	// A single zero-duration span: EndNs == StartNs, nothing to draw.
	RenderTimeline(&buf, []Span{{Node: 0, Phase: PhaseCompute, Start: 100, Dur: 0}}, 0)
	if buf.Len() != 0 {
		t.Errorf("zero-duration trace rendered output: %q", buf.String())
	}
}
