package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromNameEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"tcp_retransmits", "tcp_retransmits"},
		{"9abc", "_abc"},                   // leading digit is invalid
		{"abc9", "abc9"},                   // trailing digit is fine
		{"a-b.c", "a_b_c"},                 // punctuation flattens to '_'
		{"ns:sub:metric", "ns:sub:metric"}, // colons are part of the charset
		{"латентность", "___________"},     // non-ASCII flattens rune by rune
		{"a b\tc", "a_b_c"},
		{"", ""},
	}
	for _, c := range cases {
		if got := promName(c.in); got != c.want {
			t.Errorf("promName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePromNaNInf pins how non-finite gauges render: Prometheus'
// text format accepts NaN/+Inf/-Inf literals, and %g produces exactly
// those spellings — a scraper must never see "%!g" noise or a panic.
func TestWritePromNaNInf(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("ratio_nan").Set(math.NaN())
	reg.Gauge("ratio_posinf").Set(math.Inf(1))
	reg.Gauge("ratio_neginf").Set(math.Inf(-1))
	reg.Counter("9starts_with_digit").Add(7)

	var buf bytes.Buffer
	WriteProm(&buf, reg.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"# TYPE ratio_nan gauge\nratio_nan NaN\n",
		"# TYPE ratio_posinf gauge\nratio_posinf +Inf\n",
		"# TYPE ratio_neginf gauge\nratio_neginf -Inf\n",
		"# TYPE _starts_with_digit counter\n_starts_with_digit 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "9starts_with_digit") {
		t.Errorf("unsanitized metric name leaked:\n%s", out)
	}
}

// TestWritePromHistogramCumulative pins the cumulative-le contract: each
// bucket line carries the running total, and the +Inf bucket equals
// _count.
func TestWritePromHistogramCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("step_seconds")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Hour) // lands beyond every finite bound

	var buf bytes.Buffer
	WriteProm(&buf, reg.Snapshot())
	out := buf.String()
	if !strings.Contains(out, "# TYPE step_seconds histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `step_seconds_bucket{le="+Inf"} 3`) {
		t.Errorf("+Inf bucket should count all 3 observations:\n%s", out)
	}
	if !strings.Contains(out, "step_seconds_count 3") {
		t.Errorf("missing _count 3:\n%s", out)
	}
	// Cumulative counts never decrease across bucket lines.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "step_seconds_bucket{") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, last)
		}
		last = n
	}
}

// TestRenderTimelineDegenerateWidths: widths below the 10-bucket floor
// (0, 1, negative) clamp up rather than divide by zero, even when the
// trace holds more spans than buckets; empty and zero-duration traces
// render nothing at all.
func TestRenderTimelineDegenerateWidths(t *testing.T) {
	tr := NewTracer(256)
	// 20 spans per node — more spans than the clamped 10 buckets.
	for it := 0; it < 20; it++ {
		start := int64(it) * int64(time.Millisecond)
		tr.RecordRaw(0, it, PhaseCompute, start, int64(time.Millisecond))
		tr.RecordRaw(1, it, PhaseRecv, start, int64(time.Millisecond))
	}
	spans := tr.Snapshot()

	for _, width := range []int{0, 1, 9, -5} {
		var buf bytes.Buffer
		RenderTimeline(&buf, spans, width)
		out := buf.String()
		if !strings.Contains(out, "10 buckets") {
			t.Errorf("width %d: want clamp to 10 buckets, got:\n%s", width, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "node ") {
				continue
			}
			lo, hi := strings.IndexByte(line, '|'), strings.LastIndexByte(line, '|')
			if hi-lo-1 != 10 {
				t.Errorf("width %d: row has %d cells, want 10: %q", width, hi-lo-1, line)
			}
		}
	}

	var buf bytes.Buffer
	RenderTimeline(&buf, nil, 0)
	if buf.Len() != 0 {
		t.Errorf("empty trace rendered output: %q", buf.String())
	}
	buf.Reset()
	// A single zero-duration span: EndNs == StartNs, nothing to draw.
	RenderTimeline(&buf, []Span{{Node: 0, Phase: PhaseCompute, Start: 100, Dur: 0}}, 0)
	if buf.Len() != 0 {
		t.Errorf("zero-duration trace rendered output: %q", buf.String())
	}
}
