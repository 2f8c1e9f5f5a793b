// Package obs is the runtime observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket latency histograms
// with atomic hot paths) and a bounded-ring-buffer step tracer that
// records phase-level span events. A run's record is what it saves: the
// trace as JSONL and the registry's final snapshot as JSON, both read
// back after the run by this package and cmd/inctrace.
//
// It is the software analogue of the paper's evaluation methodology:
// Figs. 12–14 are *time breakdowns* — computation vs. communication, and
// inside communication the compress/transport/reduce/decompress phases —
// and every hot path of the runtime (the ring exchange, the transports,
// the codec, the training loops) reports
// into this package so a run can be broken down the same way.
//
// The package is stdlib-only and imports nothing else from this
// repository, so any layer may depend on it without cycles. All
// instrumentation goes through the nil-safe *Recorder: a nil recorder
// (the zero value of every Obs option field) makes every call a
// pointer-compare no-op, so uninstrumented runs pay nothing.
package obs

import (
	"fmt"
	"time"
)

// Phase identifies one class of work inside a training step. The set
// mirrors the paper's Fig. 13/14 breakdown: computation and the
// compress/transport/reduce/decompress legs of communication.
type Phase uint8

// Span phases, in breakdown-table order.
const (
	PhaseCompute Phase = iota
	PhaseCompress
	PhaseSend
	PhaseRecv
	PhaseReduce
	PhaseDecompress
	NumPhases // sentinel: number of phases
)

var phaseNames = [NumPhases]string{
	"compute", "compress", "send", "recv",
	"reduce", "decompress",
}

// String returns the phase's wire name (used in trace JSONL).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// ParsePhase inverts String for the trace reader.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// MarshalJSON encodes the phase as its name.
func (p Phase) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON decodes a phase name.
func (p *Phase) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: invalid phase %s", b)
	}
	v, ok := ParsePhase(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("obs: unknown phase %q", b[1:len(b)-1])
	}
	*p = v
	return nil
}

// Span is one timed phase event on one node. Start is nanoseconds since
// the tracer's epoch (its construction time), Dur the span length in
// nanoseconds. Iter is the training iteration, or -1 for work that is
// not attributable to a specific iteration (transport-internal codec
// runs, for example).
type Span struct {
	Node  int   `json:"node"`
	Iter  int   `json:"iter"`
	Phase Phase `json:"phase"`
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
}

// End returns the span's end offset in nanoseconds since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// Recorder bundles a registry and a tracer behind a nil-safe handle: the
// instrumented hot paths call methods on a possibly-nil *Recorder, and
// every method (and every method of the metric handles it returns)
// treats nil as "observability off". Handles returned by Counter, Gauge
// and Histogram should be looked up once per exchange or per run, not
// per event — the handle methods themselves are single atomic ops.
type Recorder struct {
	reg *Registry
	tr  *Tracer
}

// NewRecorder returns a recorder over the given registry and tracer;
// either may be nil to disable that half.
func NewRecorder(reg *Registry, tr *Tracer) *Recorder {
	return &Recorder{reg: reg, tr: tr}
}

// Counter returns the named counter handle, or nil when the recorder is
// off; the nil handle's Add is a no-op.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge returns the named gauge handle (nil-safe like Counter).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram returns the named latency histogram (nil-safe like Counter).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.Histogram(name)
}

// ActiveSpan is an in-flight phase measurement; call End (or EndAt) to
// record it. The zero value (from a nil recorder) ends as a no-op, and
// the struct is returned by value, so starting a span never allocates.
type ActiveSpan struct {
	tr    *Tracer
	start time.Time
	node  int32
	iter  int32
	phase Phase
}

// Span starts a phase span for (node, iter). Use iter -1 for work not
// tied to a training iteration.
func (r *Recorder) Span(node, iter int, phase Phase) ActiveSpan {
	if r == nil || r.tr == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{tr: r.tr, start: time.Now(), node: int32(node), iter: int32(iter), phase: phase}
}

// End records the span with duration now-start.
func (s ActiveSpan) End() {
	if s.tr == nil {
		return
	}
	s.tr.record(int(s.node), int(s.iter), s.phase, s.start, time.Since(s.start))
}

// EndWith records the span with an explicit duration (for phases whose
// active time was accumulated across interleaved chunks rather than
// spanning wall-clock start→end).
func (s ActiveSpan) EndWith(d time.Duration) {
	if s.tr == nil || d < 0 {
		return
	}
	s.tr.record(int(s.node), int(s.iter), s.phase, s.start, d)
}

// RecordRaw records a span with explicit timeline offsets, bypassing the
// tracer's wall-clock epoch. The simulators (eventsim, netsim) use it to
// emit virtual-time spans in the identical schema as measured runs, so
// inctrace can aggregate, blame, and calibrate both the same way.
func (r *Recorder) RecordRaw(node, iter int, phase Phase, startNs, durNs int64) {
	if r == nil || r.tr == nil || durNs < 0 {
		return
	}
	r.tr.RecordRaw(node, iter, phase, startNs, durNs)
}
