package obs

import (
	"strings"
	"testing"
)

func TestReadTraceSkipsTuneMeta(t *testing.T) {
	trace := `{"trace_meta":1,"node":-1,"epoch_unix_ns":0,"source":"run"}
{"tune_meta":1,"workload":{"workers":4,"model_bytes":1024,"strategy":"ring"}}
{"node":0,"iter":0,"phase":"send","start_ns":0,"dur_ns":1000}
`
	doc, err := ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	spans, metas := doc.Spans, doc.Metas
	if len(metas) != 1 {
		t.Fatalf("metas = %d, want 1", len(metas))
	}
	if len(spans) != 1 || spans[0].Phase != PhaseSend {
		t.Fatalf("spans = %+v, want one send span", spans)
	}
}
