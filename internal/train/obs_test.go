package train

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"inceptionn/internal/fault"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

// TestElasticObservability is the acceptance run for an observed elastic
// recovery: a compressed elastic TCP training with a scheduled node crash, observed through a live
// recorder. After recovery the /metrics snapshot must show the step-time
// histogram, compressed wire accounting, and the eviction — and the trace
// must aggregate into a per-node breakdown covering every worker.
func TestElasticObservability(t *testing.T) {
	trainDS, testDS := digitsData()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 15)
	o := elasticTCPOptions()
	o.Obs = obs.NewRecorder(reg, tracer)
	o.Compress = true
	// Node 2 dies mid-exchange about ten iterations in (same schedule as
	// TestElasticCrashRecovery), now under lossy compression too.
	o.Chaos = &fault.Config{Seed: 7, CrashAfter: map[int]uint64{2: 65}}

	res, err := Run(models.NewHDCSmall, trainDS, testDS, 30, o)
	if err != nil {
		t.Fatalf("elastic run under observation failed: %v", err)
	}
	if res.ComputeSeconds <= 0 || res.CommSeconds <= 0 {
		t.Errorf("Result timing not populated: compute %gs, comm %gs", res.ComputeSeconds, res.CommSeconds)
	}

	srv := httptest.NewServer(obs.NewHTTPHandler(reg, tracer))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not a JSON object: %v\n%s", err, body)
	}
	counter := func(name string) int64 {
		raw, ok := snap[name]
		if !ok {
			t.Fatalf("/metrics lacks %q; have %d metrics", name, len(snap))
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("metric %q is not an integer: %s", name, raw)
		}
		return v
	}
	var stepHist obs.HistSnapshot
	if err := json.Unmarshal(snap["ring_step_seconds"], &stepHist); err != nil {
		t.Fatalf("ring_step_seconds missing or malformed: %v", err)
	}
	if stepHist.Count == 0 || stepHist.SumSeconds <= 0 {
		t.Errorf("ring_step_seconds empty: %+v", stepHist)
	}
	if counter("wire_bytes_compressed") == 0 {
		t.Error("wire_bytes_compressed = 0 on a compressed elastic run")
	}
	if counter("elastic_evictions") == 0 {
		t.Error("elastic_evictions = 0 after a scheduled crash")
	}
	if counter("elastic_heartbeats") == 0 {
		t.Error("elastic_heartbeats = 0")
	}
	if counter("elastic_replays") == 0 {
		t.Error("elastic_replays = 0 after a mid-exchange crash")
	}

	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ReadTrace(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	spans := doc.Spans
	if len(spans) == 0 {
		t.Fatal("/trace returned no spans")
	}
	bd := obs.Aggregate(spans)
	if len(bd.Nodes) != o.Workers {
		t.Fatalf("trace covers %d nodes, want %d", len(bd.Nodes), o.Workers)
	}
	for _, nb := range bd.Nodes {
		if nb.Phase[obs.PhaseCompute] <= 0 {
			t.Errorf("node %d recorded no compute time", nb.Node)
		}
	}
}
