package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceMeta is the optional header line of a JSONL trace: it names the
// trace's node scope and anchors the span timebase (nanoseconds since the
// tracer's construction) to the writer's wall clock, which is what lets
// Merge put traces from tracers with different epochs on one timeline.
type TraceMeta struct {
	// Version is the schema version (currently 1). Its JSON key doubles
	// as the marker that distinguishes a meta line from a span line.
	Version int `json:"trace_meta"`
	// Node scopes the file to one node id, or -1 when the spans carry
	// their own node ids (a whole-process trace).
	Node int `json:"node"`
	// EpochUnixNs is the span timebase origin in the writer's wall clock
	// (UnixNano at tracer construction); 0 when unknown.
	EpochUnixNs int64 `json:"epoch_unix_ns"`
	// Source labels the producer: "run" for measured traces, "sim" for
	// simulator-generated ones, or free-form.
	Source string `json:"source,omitempty"`
}

// Tracer records phase spans into a bounded ring buffer: once capacity
// is reached the oldest spans are overwritten, so a tracer's memory is
// fixed no matter how long the run. Span timestamps are nanoseconds
// since the tracer's construction (one shared epoch per process, so
// spans from different nodes align on one timeline).
type Tracer struct {
	epoch     time.Time
	epochUnix int64 // epoch as wall-clock UnixNano (for TraceMeta)

	mu   sync.Mutex
	buf  []Span
	next int // next write position
}

// NewTracer returns a tracer retaining at most capacity spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	now := time.Now()
	return &Tracer{epoch: now, epochUnix: now.UnixNano(), buf: make([]Span, 0, capacity)}
}

// EpochUnixNs returns the tracer's epoch — the zero point of every span's
// Start — as wall-clock UnixNano (0 for the nil tracer).
func (t *Tracer) EpochUnixNs() int64 {
	if t == nil {
		return 0
	}
	return t.epochUnix
}

// Meta returns the trace header for this tracer scoped to node (-1 for a
// whole-process trace).
func (t *Tracer) Meta(node int) TraceMeta {
	return TraceMeta{Version: 1, Node: node, EpochUnixNs: t.EpochUnixNs(), Source: "run"}
}

// record appends one span, overwriting the oldest once full.
func (t *Tracer) record(node, iter int, phase Phase, start time.Time, d time.Duration) {
	t.RecordRaw(node, iter, phase, start.Sub(t.epoch).Nanoseconds(), d.Nanoseconds())
}

// RecordRaw appends a span with explicit timeline offsets (the simulator
// path; measured spans go through record, which derives the offset from
// the tracer's epoch).
func (t *Tracer) RecordRaw(node, iter int, phase Phase, startNs, durNs int64) {
	if t == nil {
		return
	}
	s := Span{Node: node, Iter: iter, Phase: phase, Start: startNs, Dur: durNs}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Snapshot returns the retained spans in record order (oldest first).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// t.next is the oldest slot once the ring is full, and len(t.buf)
	// before that, so the two halves are always in record order.
	out := make([]Span, 0, len(t.buf))
	return append(append(out, t.buf[t.next:]...), t.buf[:t.next]...)
}

// WriteJSONL streams the trace to w — a leading TraceMeta line anchoring
// the timebase, then the retained spans one JSON object per line. This is
// the trace format cmd/inctrace consumes (ReadTrace).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, t.Meta(-1), t.Snapshot())
}

// WriteNodeJSONL streams only the given node's spans, with a meta line
// scoped to that node — the per-node trace files Merge puts back on one
// timeline (inctrain -trace-dir).
func (t *Tracer) WriteNodeJSONL(w io.Writer, node int) error {
	all := t.Snapshot()
	spans := make([]Span, 0, len(all))
	for _, s := range all {
		if s.Node == node {
			spans = append(spans, s)
		}
	}
	return WriteSpansJSONL(w, t.Meta(node), spans)
}

// WriteSpansJSONL writes an explicit meta header and span list in the
// trace JSONL format. A zero-Version meta suppresses the header line.
func WriteSpansJSONL(w io.Writer, meta TraceMeta, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	if meta.Version != 0 {
		if err := enc.Encode(meta); err != nil {
			return err
		}
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Trace is a parsed JSONL trace document: one JSON object per line, each
// line's kind named by its first key.
type Trace struct {
	// Spans are the span lines (first key one of Span's), in file order.
	Spans []Span
	// Metas are the "trace_meta" header lines; concatenated per-node
	// files carry several.
	Metas []TraceMeta
	// Other holds every remaining line, undecoded and in file order: the
	// auxiliary kinds that producers above obs add to a trace (a tuner's
	// self-description, or the incident lines of old black-box dumps).
	// Their schemas belong to their writers, which decode them from
	// here — so a producer adds a line kind without obs learning its
	// name, and the span-based reports replay any such document unchanged.
	Other []Line
}

// Line is one trace line obs does not own.
type Line struct {
	// Key is the line's first JSON key, which names its kind.
	Key string
	// Num is the line's 1-based number in the stream, for error messages.
	Num int
	// JSON is the line verbatim.
	JSON json.RawMessage
}

// firstKey returns the first object key of a JSON line (no leading
// space), or nil when the line is not an object that opens with a
// non-empty, escape-free string key.
func firstKey(b []byte) []byte {
	if len(b) == 0 || b[0] != '{' {
		return nil
	}
	b = bytes.TrimLeft(b[1:], " \t")
	if len(b) == 0 || b[0] != '"' {
		return nil
	}
	end := bytes.IndexByte(b[1:], '"')
	if end < 0 || bytes.IndexByte(b[1:1+end], '\\') >= 0 {
		return nil
	}
	return b[1 : 1+end]
}

// ReadTrace parses a JSONL trace stream in one pass (blank lines
// ignored), classifying each line by its first key. It is the only
// reader of the format: the packages that write other line kinds decode
// theirs out of Trace.Other.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for num := 1; sc.Scan(); num++ {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var err error
		switch key := firstKey(b); string(key) {
		case "node", "iter", "phase", "start_ns", "dur_ns":
			var s Span
			err = json.Unmarshal(b, &s)
			t.Spans = append(t.Spans, s)
		case "trace_meta":
			var m TraceMeta
			err = json.Unmarshal(b, &m)
			t.Metas = append(t.Metas, m)
		case "":
			err = errors.New("not a JSON object with a plain leading key")
		default:
			if json.Valid(b) {
				t.Other = append(t.Other, Line{Key: string(key), Num: num, JSON: append(json.RawMessage(nil), b...)})
			} else {
				err = errors.New("invalid JSON")
			}
		}
		if err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", num, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	return t, nil
}
