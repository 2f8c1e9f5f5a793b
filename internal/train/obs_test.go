package train

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
)

// TestTCPObservability is the acceptance run for an observed run on the
// wire: a compressed ring training over loopback TCP, observed through a
// recorder. The saved metrics snapshot must show the step-time histogram
// and compressed wire accounting, and the saved trace must aggregate into
// a per-node breakdown covering every worker.
func TestTCPObservability(t *testing.T) {
	trainDS, testDS := digitsData()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 15)
	o := digitsOptions()
	o.EvalSamples = 64
	o.StepTimeout = 20 * time.Second
	o = o.onTCP(fpcodec.MustBound(10))
	o.Obs = obs.NewRecorder(reg, tracer)
	o.Compress = true

	res, err := Run(models.NewHDCSmall, trainDS, testDS, 12, o)
	if err != nil {
		t.Fatalf("TCP run under observation failed: %v", err)
	}
	if res.ComputeSeconds <= 0 || res.CommSeconds <= 0 {
		t.Errorf("Result timing not populated: compute %gs, comm %gs", res.ComputeSeconds, res.CommSeconds)
	}

	// The run's record, as inctrain saves it: the registry snapshot as
	// JSON (-metrics-out) and the tracer as JSONL (-trace-out).
	body, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("the metrics snapshot is not a JSON object: %v\n%s", err, body)
	}
	counter := func(name string) int64 {
		raw, ok := snap[name]
		if !ok {
			t.Fatalf("the metrics snapshot lacks %q; have %d metrics", name, len(snap))
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
		t.Error("wire_bytes_compressed = 0 on a compressed TCP run")
	}

	var trace bytes.Buffer
	if err := tracer.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	spans := doc.Spans
	if len(spans) == 0 {
		t.Fatal("the saved trace holds no spans")
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
