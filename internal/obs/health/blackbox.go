package health

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"inceptionn/internal/obs"
)

// The black-box dump is a JSONL file in the trace format plus auxiliary
// lines, so it replays through every existing span consumer unchanged:
//
//	{"trace_meta":1,"node":-1,"epoch_unix_ns":...,"source":"blackbox"}
//	{"blackbox":1,"kind":"incident","incident":{...}}
//	{"blackbox":1,"kind":"metrics","unix_ns":...,"metrics":{...}}
//	{"node":0,"iter":12,"phase":"recv","start_ns":...,"dur_ns":...}
//	...
//
// obs.ReadTrace keeps the "blackbox"-keyed lines aside, undecoded, so
// `inctrace blame <dump>` and `inctrace breakdown <dump>` work on a dump
// file directly; ReadDump decodes them into incidents and metric
// snapshots.

// auxKey is the first key of every non-span line of a dump — auxLine's
// first field, which is what obs.ReadTrace files the line under.
const auxKey = "blackbox"

// auxLine is one non-span line of a dump.
type auxLine struct {
	Blackbox int                    `json:"blackbox"`
	Kind     string                 `json:"kind"`
	UnixNs   int64                  `json:"unix_ns,omitempty"`
	Incident *Incident              `json:"incident,omitempty"`
	Metrics  map[string]interface{} `json:"metrics,omitempty"`
}

// metricSnap is one retained point-in-time registry snapshot.
type metricSnap struct {
	UnixNs  int64
	Metrics map[string]interface{}
}

// flightRecorder is the always-on pre-incident evidence the engine keeps
// itself: the last few metric snapshots. (The spans of a dump are the
// tracer's own tail — see Engine.evidenceLocked.) It costs a fixed amount
// of memory no matter how long the run; the expensive serialization
// happens only when an incident dumps.
type flightRecorder struct {
	snaps    []metricSnap
	maxSnaps int
}

func newFlightRecorder(snapCap int) *flightRecorder {
	return &flightRecorder{maxSnaps: snapCap}
}

func (f *flightRecorder) addSnap(unixNs int64, m map[string]interface{}) {
	f.snaps = append(f.snaps, metricSnap{UnixNs: unixNs, Metrics: m})
	if len(f.snaps) > f.maxSnaps {
		f.snaps = f.snaps[len(f.snaps)-f.maxSnaps:]
	}
}

func (f *flightRecorder) snapshots() []metricSnap {
	return append([]metricSnap(nil), f.snaps...)
}

// writeDump serializes one black-box document to path.
func writeDump(path string, meta obs.TraceMeta, inc Incident, snaps []metricSnap, spans []obs.Span) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(file)
	enc := json.NewEncoder(bw)
	err = enc.Encode(meta)
	if err == nil {
		err = enc.Encode(auxLine{Blackbox: 1, Kind: "incident", UnixNs: inc.OpenedNs, Incident: &inc})
	}
	for _, s := range snaps {
		if err != nil {
			break
		}
		err = enc.Encode(auxLine{Blackbox: 1, Kind: "metrics", UnixNs: s.UnixNs, Metrics: s.Metrics})
	}
	for _, s := range spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dump is a parsed black-box file.
type Dump struct {
	Metas     []obs.TraceMeta
	Incidents []Incident
	Snapshots []metricSnap
	Spans     []obs.Span
}

// ReadDump parses a black-box JSONL stream: obs.ReadTrace's one pass
// for the spans and headers, then this package's own lines out of it.
func ReadDump(r io.Reader) (*Dump, error) {
	t, err := obs.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	d := &Dump{Metas: t.Metas, Spans: t.Spans}
	for _, l := range t.Other {
		if l.Key != auxKey {
			continue
		}
		var aux auxLine
		if err := json.Unmarshal(l.JSON, &aux); err != nil {
			return nil, fmt.Errorf("health: blackbox line %d: %w", l.Num, err)
		}
		switch aux.Kind {
		case "incident":
			if aux.Incident != nil {
				d.Incidents = append(d.Incidents, *aux.Incident)
			}
		case "metrics":
			d.Snapshots = append(d.Snapshots, metricSnap{UnixNs: aux.UnixNs, Metrics: aux.Metrics})
		}
	}
	return d, nil
}

// ReadDumpFile parses the black-box file at path.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}
