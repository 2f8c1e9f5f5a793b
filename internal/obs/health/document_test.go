package health

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"inceptionn/internal/obs"
)

// This package's half of the trace document's contract (see
// internal/obs/document_test.go for where the files come from): ReadDump
// returns for ../testdata/blackbox.jsonl what the commit that wrote it
// read back, and writeDump still produces that commit's bytes.

// goldenDump is the fixed writer input. The snapshots hold what a live
// registry's do — int64 counters, float64 gauges and typed histogram
// snapshots, whose fields encode in declaration order; a dump read back
// from JSON holds maps instead and would re-encode in key order, which is
// why the golden bytes come from in-memory values and not from a re-write.
func goldenDump() (obs.TraceMeta, Incident, []metricSnap, []obs.Span) {
	meta := obs.TraceMeta{Version: 1, Node: -1, EpochUnixNs: 1700000000123456789, Source: "blackbox"}
	inc := Incident{
		ID: 7, Detector: "straggler", Severity: SevWarn, Node: 2, Phase: obs.PhaseCompute,
		IterLo: 5, IterHi: 7, OpenedNs: 1700000001000000000,
		Value: 0.028658971, Baseline: 0.000003999, Score: 14.327486,
		Cause: "cohort recv wait 28.7ms vs this node's 0.0ms (straggler inversion)",
	}
	hist := obs.HistSnapshot{
		Count: 96, SumSeconds: 0.483488982, MaxSeconds: 0.029937726,
		P50Seconds: 0.000373, P90Seconds: 0.0194, P99Seconds: 0.0468,
		Buckets:  []obs.HistBucket{{LESeconds: 0.00005, N: 1}, {LESeconds: 0.05, N: 94}},
		Overflow: 1,
	}
	snaps := []metricSnap{
		{UnixNs: 1700000000900000000, Metrics: map[string]interface{}{
			"tcp_retransmits": int64(3), "compression_ratio": 3.25, "ring_step_seconds": obs.HistSnapshot{},
		}},
		{UnixNs: 1700000001000000001, Metrics: map[string]interface{}{
			"tcp_retransmits": int64(4), "compression_ratio": 0.0, "ring_step_seconds": hist, "health_incidents_open": 1.0,
		}},
	}
	spans := []obs.Span{
		{Node: 0, Iter: 5, Phase: obs.PhaseCompute, Start: 9601554, Dur: 9441108},
		{Node: 2, Iter: 5, Phase: obs.PhaseRecv, Start: 19042662, Dur: 3999},
		{Node: 4, Iter: 6, Phase: obs.PhaseFallback, Start: 20000000, Dur: 1500000000},
		{Node: 1, Iter: -1, Phase: obs.PhaseDecompress, Start: 0, Dur: 0},
	}
	return meta, inc, snaps, spans
}

func TestWriteDumpGolden(t *testing.T) {
	meta, inc, snaps, spans := goldenDump()
	path := filepath.Join(t.TempDir(), "dump.jsonl")
	if err := writeDump(path, meta, inc, snaps, spans); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_dump.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writeDump bytes changed:\n got %s\nwant %s", got, want)
	}
	// And the reader takes the writer's output apart again.
	d, err := ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Metas, []obs.TraceMeta{meta}) || !reflect.DeepEqual(d.Incidents, []Incident{inc}) ||
		!reflect.DeepEqual(d.Spans, spans) || len(d.Snapshots) != len(snaps) || d.Snapshots[1].UnixNs != snaps[1].UnixNs {
		t.Fatalf("golden dump does not read back: %+v", d)
	}
}

func TestReadDumpGolden(t *testing.T) {
	parsed, err := os.ReadFile(filepath.Join("..", "testdata", "blackbox.parsed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Dump
	if err := json.Unmarshal(parsed, &want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDumpFile(filepath.Join("..", "testdata", "blackbox.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Incidents) != 1 || len(got.Snapshots) != 1 || len(got.Spans) == 0 {
		t.Fatalf("dump holds %d incidents, %d snapshots, %d spans", len(got.Incidents), len(got.Snapshots), len(got.Spans))
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("ReadDump differs from what the dump's own commit read:\n got %+v\nwant %+v", got, &want)
	}
}
