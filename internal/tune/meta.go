package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"inceptionn/internal/obs"
)

// Meta is the auxiliary trace line that makes a run self-describing: the
// workload that produced the spans. It is written as one JSONL line whose
// leading "tune_meta" key names its kind; obs.ReadTrace sets such lines
// aside undecoded, ParseTrace decodes them, so a trace file alone is
// enough to re-fit and re-plan (`inctrace tune run.jsonl`).
type Meta struct {
	// Version is the schema version (currently 1); its JSON key, first
	// on the line, is metaKey.
	Version  int      `json:"tune_meta"`
	Workload Workload `json:"workload"`
}

// Append writes the meta as one JSONL line.
func (m Meta) Append(w io.Writer) error {
	if m.Version == 0 {
		m.Version = 1
	}
	return json.NewEncoder(w).Encode(m)
}

// metaKey is the first key of a tune meta line — what obs.ReadTrace
// files it under.
const metaKey = "tune_meta"

// ParseTrace reads a JSONL trace stream, returning its spans, trace
// headers, and the first tune meta line if any.
func ParseTrace(r io.Reader) ([]obs.Span, []obs.TraceMeta, *Meta, error) {
	t, err := obs.ReadTrace(r)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, l := range t.Other {
		if l.Key != metaKey {
			continue
		}
		var m Meta
		if err := json.Unmarshal(l.JSON, &m); err != nil {
			return nil, nil, nil, fmt.Errorf("tune: meta line %d: %w", l.Num, err)
		}
		return t.Spans, t.Metas, &m, nil
	}
	return t.Spans, t.Metas, nil, nil
}

// ReadTraceFile reads one trace file into a fitting sample. When the
// file carries a tune meta line its workload is used; otherwise the
// fallback workload is attached (pass a zero Workload to require the
// meta — Sample.Workload.Validate will then reject the sample).
func ReadTraceFile(path string, fallback Workload) (Sample, *Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Sample{}, nil, err
	}
	defer f.Close()
	spans, _, meta, err := ParseTrace(f)
	if err != nil {
		return Sample{}, nil, err
	}
	s := Sample{Workload: fallback, Spans: spans}
	if meta != nil {
		s.Workload = meta.Workload
	}
	return s, meta, nil
}
