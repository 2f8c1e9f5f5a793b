package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func TestMergeOutOfOrderAndWrapped(t *testing.T) {
	// A wrapped ring buffer read mid-write hands Merge spans whose
	// record order no longer matches time order. Feed a deliberately
	// shuffled source plus a second source with a later epoch and check
	// the merged timeline is monotone, offset-corrected, and rebased.
	m, err := Merge(
		Source{Name: "shuffled", Node: 0, EpochUnixNs: 1_000_000, Spans: []Span{
			{Node: 9, Iter: 2, Phase: PhaseSend, Start: 500, Dur: 10},
			{Node: 9, Iter: 0, Phase: PhaseSend, Start: 100, Dur: 10},
			{Node: 9, Iter: 1, Phase: PhaseSend, Start: 300, Dur: 10},
		}},
		// Epoch 700ns later: its span at local 100 lands at global 800.
		Source{Name: "later", Node: 1, EpochUnixNs: 1_000_700, Spans: []Span{
			{Node: 1, Iter: 0, Phase: PhaseRecv, Start: 100, Dur: 5},
		}},
	)
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
	m, err := Merge(Source{Name: "wrap", Node: -1, EpochUnixNs: tr.EpochUnixNs(), Spans: tr.Snapshot()})
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
	if _, err := Merge(); err == nil {
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
	var srcs []Source
	for node := 0; node < 2; node++ {
		src, err := FileSource(filepath.Join(dir, "trace_"+string(rune('0'+node))+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	m, err := Merge(srcs...)
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
		srcs := make([]Source, nodes)
		for n, spans := range sources {
			srcs[n] = Source{Name: fmt.Sprintf("node%d", n), Node: n, EpochUnixNs: int64(1_000_000 + n*137), Spans: spans}
		}
		m, err := Merge(srcs...)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Spans) != nodes*spansPerNode {
			b.Fatalf("merged %d spans, want %d", len(m.Spans), nodes*spansPerNode)
		}
	}
}
