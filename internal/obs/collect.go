package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Key identifies one cell of the merged cluster timeline: which node
// spent time in which phase of which training iteration. It is the unit
// the critical-path attribution and the calibration diff operate on.
type Key struct {
	Node  int
	Iter  int
	Phase Phase
}

// IndexSpans sums span durations per {node, iter, phase} — the merged
// timeline as a queryable map.
func IndexSpans(spans []Span) map[Key]time.Duration {
	idx := make(map[Key]time.Duration)
	for _, s := range spans {
		idx[Key{Node: s.Node, Iter: s.Iter, Phase: s.Phase}] += time.Duration(s.Dur)
	}
	return idx
}

// Source is one node's (or one process's) contribution to a merged
// cluster trace: its spans, the wall-clock anchor of their timebase, and
// — for live endpoints — the clock handshake that corrects for the
// source's clock running ahead of or behind the collector's.
type Source struct {
	// Name labels the source in reports (the file path or endpoint addr).
	Name string
	// Node forces every span to this node id; -1 keeps the node ids the
	// spans carry (a whole-process trace).
	Node int
	// Spans is the raw span list, timestamps on the source's own timebase.
	Spans []Span
	// EpochUnixNs anchors the span timebase to the source's wall clock
	// (from the trace meta line); 0 = unknown.
	EpochUnixNs int64
	// Clock, when non-nil, is the live handshake estimate for this
	// source's wall clock relative to the collector's.
	Clock *ClockEstimate
	// Metrics is the source's /metrics snapshot, when scraped.
	Metrics map[string]interface{}
}

// SourceInfo reports how one source was aligned during a merge.
type SourceInfo struct {
	Name          string
	Node          int
	Spans         int
	OffsetNs      int64 // clock correction applied (remote minus collector)
	UncertaintyNs int64 // ± bound on that correction (0 = wall-clock trust)
	Aligned       bool  // false: no epoch known, spans kept on their own base
}

// Merged is the offset-corrected, cluster-wide timeline a Collector
// produces: all sources' spans on one timebase, sorted by start,
// rebased so the earliest span starts at 0.
type Merged struct {
	Spans   []Span
	Sources []SourceInfo
	// BaseUnixNs is the collector-frame wall time of merged t=0 (0 when
	// no source carried a wall-clock anchor).
	BaseUnixNs int64
}

// Nodes returns the sorted distinct node ids in the merged trace.
func (m *Merged) Nodes() []int {
	seen := make(map[int]bool)
	for _, s := range m.Spans {
		seen[s.Node] = true
	}
	nodes := make([]int, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// Collector gathers per-node observability state — Registry snapshots and
// Tracer spans — from every worker of a multi-node run, estimates each
// source's clock offset, and merges everything into one global,
// offset-corrected timeline. Sources are added from JSONL trace files
// (AddFile), live -metrics-addr endpoints (AddEndpoint, which also runs
// the /clock handshake and scrapes /metrics), or directly (AddSpans).
//
// The collector owns a Registry of its own: per-source clock offset and
// uncertainty gauges plus merge totals, so the alignment quality is
// itself a first-class, renderable metric.
type Collector struct {
	// Probes is the number of /clock handshakes per endpoint (min-RTT
	// sample wins); 0 means the default of 7.
	Probes int

	sources []*Source
	reg     *Registry
}

// scrapeClient is the HTTP client behind AddEndpoint and HTTPClockProbe:
// a diagnostics scrape of a live run gives up after 5 s.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry()}
}

// Registry exposes the collector's own metrics (clock offsets, merge
// totals).
func (c *Collector) Registry() *Registry { return c.reg }

// Sources returns the sources added so far.
func (c *Collector) Sources() []*Source { return c.sources }

// AddSpans adds an in-memory source. node -1 keeps span-carried node ids;
// epochUnixNs 0 marks the timebase anchor unknown.
func (c *Collector) AddSpans(name string, node int, epochUnixNs int64, spans []Span) *Source {
	src := &Source{Name: name, Node: node, Spans: spans, EpochUnixNs: epochUnixNs}
	c.sources = append(c.sources, src)
	return src
}

// AddFile ingests a JSONL trace file. The file's TraceMeta line (when
// present) supplies the node scope and the wall-clock epoch used for
// alignment; without one the source merges unaligned.
func (c *Collector) AddFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return fmt.Errorf("obs: collect %s: %w", path, err)
	}
	c.addTrace(filepath.Base(path), t)
	return nil
}

// addTrace adds a parsed trace as a source; its first TraceMeta line
// (when present) supplies the node scope and the wall-clock epoch.
func (c *Collector) addTrace(name string, t *Trace) *Source {
	src := c.AddSpans(name, -1, 0, t.Spans)
	if len(t.Metas) > 0 {
		src.Node = t.Metas[0].Node
		src.EpochUnixNs = t.Metas[0].EpochUnixNs
	}
	return src
}

// AddEndpoint scrapes a live obs endpoint: /trace for the spans, /metrics
// for the registry snapshot, and a /clock handshake (Probes rounds,
// min-RTT midpoint) for the clock offset. A server without /clock (or
// without a tracer) falls back to the trace meta epoch.
func (c *Collector) AddEndpoint(addr string) error {
	get := func(path string) ([]byte, error) {
		resp, err := scrapeClient.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}

	body, err := get("/trace")
	if err != nil {
		return fmt.Errorf("obs: collect %s: %w", addr, err)
	}
	t, err := ReadTrace(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("obs: collect %s: %w", addr, err)
	}
	src := c.addTrace(addr, t)

	probes := c.Probes
	if probes <= 0 {
		probes = 7
	}
	if est, err := EstimateClock(probes, HTTPClockProbe(addr)); err == nil && est.EpochUnixNs != 0 {
		src.Clock = &est
	}

	if body, err := get("/metrics"); err == nil {
		if snap, err := ParseSnapshot(body); err == nil {
			src.Metrics = snap
		}
	}
	return nil
}

// Merge aligns every source onto the collector's timebase and returns the
// global timeline. Alignment per source, best evidence first:
//
//  1. A live clock handshake: epoch_collector = Clock.EpochUnixNs −
//     Clock.OffsetNs (the remote epoch translated into collector wall
//     time, good to ±UncertaintyNs).
//  2. A trace-meta epoch: trusted as-is (assumes wall clocks are synced —
//     same host, or NTP-disciplined).
//  3. Neither: the source merges on its own base from 0 and is flagged
//     unaligned.
//
// The merged spans are sorted by corrected start time — out-of-order
// input (a wrapped ring buffer read mid-write, concatenated files) is
// normalized here — and rebased so the earliest span starts at zero. The
// per-source offsets and uncertainties are recorded as gauges in the
// collector's Registry.
func (c *Collector) Merge() (*Merged, error) {
	if len(c.sources) == 0 {
		return nil, fmt.Errorf("obs: nothing to merge: no sources added")
	}
	m := &Merged{}
	type placed struct {
		src   *Source
		epoch int64 // source timebase origin in collector wall ns
		info  SourceInfo
	}
	var ps []placed
	anyAligned := false
	for _, src := range c.sources {
		p := placed{src: src, info: SourceInfo{Name: src.Name, Node: src.Node, Spans: len(src.Spans)}}
		switch {
		case src.Clock != nil && src.Clock.EpochUnixNs != 0:
			p.epoch = src.Clock.EpochUnixNs - src.Clock.OffsetNs
			p.info.OffsetNs = src.Clock.OffsetNs
			p.info.UncertaintyNs = src.Clock.UncertaintyNs
			p.info.Aligned = true
		case src.EpochUnixNs != 0:
			p.epoch = src.EpochUnixNs
			p.info.Aligned = true
		}
		if p.info.Aligned {
			anyAligned = true
		}
		ps = append(ps, p)
	}

	for _, p := range ps {
		gaugeBase := fmt.Sprintf("collector_clock_%s", promName(p.src.Name))
		c.reg.Gauge(gaugeBase + "_offset_s").Set(float64(p.info.OffsetNs) / 1e9)
		c.reg.Gauge(gaugeBase + "_uncertainty_s").Set(float64(p.info.UncertaintyNs) / 1e9)
		epoch := p.epoch
		for _, s := range p.src.Spans {
			if p.src.Node >= 0 {
				s.Node = p.src.Node
			}
			s.Start += epoch
			m.Spans = append(m.Spans, s)
		}
		m.Sources = append(m.Sources, p.info)
	}
	sort.SliceStable(m.Spans, func(i, j int) bool { return m.Spans[i].Start < m.Spans[j].Start })
	if len(m.Spans) > 0 {
		base := m.Spans[0].Start
		for i := range m.Spans {
			m.Spans[i].Start -= base
		}
		if anyAligned {
			m.BaseUnixNs = base
		}
	}
	c.reg.Counter("collector_spans_merged").Add(int64(len(m.Spans)))
	c.reg.Gauge("collector_sources").Set(float64(len(m.Sources)))
	return m, nil
}

// WriteJSONL writes the merged timeline in the standard trace format: a
// meta line anchoring merged t=0 to the collector's wall clock, then the
// spans. The result is consumable by every inctrace mode.
func (m *Merged) WriteJSONL(w io.Writer) error {
	meta := TraceMeta{Version: 1, Node: -1, EpochUnixNs: m.BaseUnixNs, Source: "merged"}
	return WriteSpansJSONL(w, meta, m.Spans)
}
