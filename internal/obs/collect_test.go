package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestMergeOutOfOrderAndWrapped(t *testing.T) {
	// A wrapped ring buffer read mid-write hands the collector spans whose
	// record order no longer matches time order. Feed a deliberately
	// shuffled source plus a second source with a later epoch and check
	// the merged timeline is monotone, offset-corrected, and rebased.
	c := NewCollector()
	c.AddSpans("shuffled", 0, 1_000_000, []Span{
		{Node: 9, Iter: 2, Phase: PhaseSend, Start: 500, Dur: 10},
		{Node: 9, Iter: 0, Phase: PhaseSend, Start: 100, Dur: 10},
		{Node: 9, Iter: 1, Phase: PhaseSend, Start: 300, Dur: 10},
	})
	// Epoch 700ns later: its span at local 100 lands at global 800.
	c.AddSpans("later", 1, 1_000_700, []Span{
		{Node: 1, Iter: 0, Phase: PhaseRecv, Start: 100, Dur: 5},
	})
	m, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != 4 {
		t.Fatalf("merged %d spans, want 4", len(m.Spans))
	}
	for i := 1; i < len(m.Spans); i++ {
		if m.Spans[i].Start < m.Spans[i-1].Start {
			t.Fatalf("merged spans not sorted: %v", m.Spans)
		}
	}
	if m.Spans[0].Start != 0 {
		t.Fatalf("timeline not rebased to 0: first start %d", m.Spans[0].Start)
	}
	// Node forcing: source "shuffled" is scoped to node 0.
	if m.Spans[0].Node != 0 {
		t.Fatalf("node not forced by source scope: got %d", m.Spans[0].Node)
	}
	// Expected global order: 100, 300, 500 (node 0) then 800 (node 1).
	wantStarts := []int64{0, 200, 400, 700}
	for i, w := range wantStarts {
		if m.Spans[i].Start != w {
			t.Fatalf("span %d start = %d, want %d", i, m.Spans[i].Start, w)
		}
	}
	if m.BaseUnixNs != 1_000_100 {
		t.Fatalf("BaseUnixNs = %d, want 1000100", m.BaseUnixNs)
	}
}

func TestMergeTracerWrapAround(t *testing.T) {
	// Drive a real tracer past capacity so its buffer physically wraps,
	// then merge the snapshot. Snapshot order is record order; the merge
	// must still emit time-sorted output even if a raw-span source
	// recorded out of time order around the wrap.
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		// Descending starts make record order the reverse of time order.
		tr.RecordRaw(0, i, PhaseCompute, int64(1000-i*100), 50)
	}
	c := NewCollector()
	c.AddSpans("wrap", -1, tr.EpochUnixNs(), tr.Snapshot())
	m, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(m.Spans))
	}
	for i := 1; i < len(m.Spans); i++ {
		if m.Spans[i].Start < m.Spans[i-1].Start {
			t.Fatalf("wrapped merge not sorted: %+v", m.Spans)
		}
	}
	// The 4 retained spans are iters 6..9 (starts 400,300,200,100);
	// sorted and rebased they begin at 0 with iter 9 first.
	if m.Spans[0].Iter != 9 || m.Spans[0].Start != 0 {
		t.Fatalf("first merged span = %+v, want iter 9 at 0", m.Spans[0])
	}
}

func TestMergeNoSources(t *testing.T) {
	if _, err := NewCollector().Merge(); err == nil {
		t.Fatal("want error merging with no sources")
	}
}

func TestCollectorFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer(64)
	tr.RecordRaw(0, 0, PhaseCompute, 10, 100)
	tr.RecordRaw(1, 0, PhaseCompute, 20, 100)
	for node := 0; node < 2; node++ {
		var buf bytes.Buffer
		if err := tr.WriteNodeJSONL(&buf, node); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "trace_"+string(rune('0'+node))+".jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector()
	for node := 0; node < 2; node++ {
		if err := c.AddFile(filepath.Join(dir, "trace_"+string(rune('0'+node))+".jsonl")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != 2 {
		t.Fatalf("merged %d spans, want 2", len(m.Spans))
	}
	for _, si := range m.Sources {
		if !si.Aligned {
			t.Fatalf("file source %s not aligned despite meta epoch", si.Name)
		}
	}
	// Same-tracer epochs: relative spacing must survive the round trip.
	if d := m.Spans[1].Start - m.Spans[0].Start; d != 10 {
		t.Fatalf("span spacing %dns, want 10ns", d)
	}

	// The merged timeline re-exports in the standard format.
	var out bytes.Buffer
	if err := m.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadTrace(&out)
	if err != nil {
		t.Fatal(err)
	}
	spans, metas := doc.Spans, doc.Metas
	if len(spans) != 2 || len(metas) != 1 || metas[0].Source != "merged" {
		t.Fatalf("re-exported trace: %d spans, metas %+v", len(spans), metas)
	}
}

// skewedObsServer serves the obs endpoint surface (/trace, /metrics,
// /clock) for a tracer whose host clock runs `skew` away from the test's
// — the cross-machine scenario the clock handshake exists for.
func skewedObsServer(t *testing.T, reg *Registry, tr *Tracer, skew time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		// The skewed host stamps its meta epoch with its own wall clock.
		meta := tr.Meta(-1)
		meta.EpochUnixNs += skew.Nanoseconds()
		WriteSpansJSONL(w, meta, tr.Snapshot())
	})
	mux.HandleFunc("/clock", func(w http.ResponseWriter, _ *http.Request) {
		doc := clockDocNow(tr)
		doc.UnixNs += skew.Nanoseconds()
		doc.EpochUnixNs += skew.Nanoseconds()
		json.NewEncoder(w).Encode(doc)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCollectorLiveEndpoints(t *testing.T) {
	// Three "nodes": two honest clocks behind the real obs handler, one
	// skewed 2 seconds into the future behind the simulated remote host.
	// All three record one compute span at (nearly) the same true instant;
	// after the /clock handshake the merged timeline must put them
	// together, skew corrected away.
	const skew = 2 * time.Second
	var addrs []string
	var tracers []*Tracer
	for node := 0; node < 3; node++ {
		reg := NewRegistry()
		reg.Counter("iterations_total").Add(int64(10 + node))
		tr := NewTracer(128)
		tracers = append(tracers, tr)
		var srv *httptest.Server
		if node == 2 {
			srv = skewedObsServer(t, reg, tr, skew)
		} else {
			srv = httptest.NewServer(NewHTTPHandler(reg, tr))
			t.Cleanup(srv.Close)
		}
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}

	// One shared true instant, expressed on each tracer's own timebase.
	now := time.Now().UnixNano()
	for node, tr := range tracers {
		tr.RecordRaw(node, 0, PhaseCompute, now-tr.EpochUnixNs(), 1000)
	}

	c := NewCollector()
	c.Probes = 5
	for _, addr := range addrs {
		if err := c.AddEndpoint(addr); err != nil {
			t.Fatal(err)
		}
	}
	for i, src := range c.Sources() {
		if src.Clock == nil {
			t.Fatalf("source %d: no clock handshake", i)
		}
		if len(src.Metrics) == 0 {
			t.Fatalf("source %d: /metrics not scraped", i)
		}
	}
	// The skewed endpoint's handshake must report ≈+2s offset.
	est := c.Sources()[2].Clock
	offErr := est.OffsetNs - skew.Nanoseconds()
	if offErr < 0 {
		offErr = -offErr
	}
	if offErr > est.UncertaintyNs+int64(50*time.Millisecond) {
		t.Fatalf("skewed endpoint offset %dns, want ≈%dns (±%dns)", est.OffsetNs, skew.Nanoseconds(), est.UncertaintyNs)
	}

	m, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3", len(m.Spans))
	}
	// All three spans marked the same true instant: after correction the
	// spread must be far below the injected 2s skew — bounded by the
	// handshake uncertainty plus loopback scheduling slop.
	spread := m.Spans[2].Start - m.Spans[0].Start
	if spread > (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("corrected spread %s: skew not removed", time.Duration(spread))
	}
	// And the collector's own registry carries the alignment gauges.
	snap := c.Registry().Snapshot()
	if v, ok := snap["collector_spans_merged"].(int64); !ok || v != 3 {
		t.Fatalf("collector_spans_merged = %v", snap["collector_spans_merged"])
	}
	found := false
	for k := range snap {
		if strings.HasPrefix(k, "collector_clock_") && strings.HasSuffix(k, "_offset_s") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-source clock offset gauges in %v", snap)
	}
}

// BenchmarkCollectorMerge measures the cross-node trace merge: eight
// per-node span sets with distinct trace-meta epochs aligned,
// node-forced, time-sorted, and rebased onto one timeline.
func BenchmarkCollectorMerge(b *testing.B) {
	const nodes = 8
	const spansPerNode = 4096
	sources := make([][]Span, nodes)
	for n := range sources {
		spans := make([]Span, spansPerNode)
		for i := range spans {
			spans[i] = Span{
				Node:  n,
				Iter:  i / int(NumPhases),
				Phase: Phase(i % int(NumPhases)),
				Start: int64(i) * 1000,
				Dur:   900,
			}
		}
		sources[n] = spans
	}
	var span Span
	b.SetBytes(int64(nodes * spansPerNode * int(unsafe.Sizeof(span))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		for n, spans := range sources {
			c.AddSpans(fmt.Sprintf("node%d", n), n, int64(1_000_000+n*137), spans)
		}
		m, err := c.Merge()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Spans) != nodes*spansPerNode {
			b.Fatalf("merged %d spans, want %d", len(m.Spans), nodes*spansPerNode)
		}
	}
}
