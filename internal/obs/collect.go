package obs

import (
	"fmt"
	"io"
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
// cluster trace: its spans and the wall-clock anchor of their timebase.
type Source struct {
	// Name labels the source in reports (the file's base name).
	Name string
	// Node forces every span to this node id; -1 keeps the node ids the
	// spans carry (a whole-process trace).
	Node int
	// Spans is the raw span list, timestamps on the source's own timebase.
	Spans []Span
	// EpochUnixNs anchors the span timebase to the source's wall clock
	// (from the trace meta line); 0 = unknown.
	EpochUnixNs int64
}

// FileSource reads a JSONL trace file as a merge source: its first
// TraceMeta line (when present) supplies the node scope and the
// wall-clock epoch; without one the source merges unaligned.
func FileSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return Source{}, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return Source{}, fmt.Errorf("obs: merge %s: %w", path, err)
	}
	src := Source{Name: filepath.Base(path), Node: -1, Spans: t.Spans}
	if len(t.Metas) > 0 {
		src.Node = t.Metas[0].Node
		src.EpochUnixNs = t.Metas[0].EpochUnixNs
	}
	return src, nil
}

// SourceInfo reports how one source was aligned during a merge.
type SourceInfo struct {
	Name    string
	Node    int
	Spans   int
	Aligned bool // false: no epoch known, spans kept on their own base
}

// Merged is the cluster-wide timeline Merge produces: all sources' spans
// on one timebase, sorted by start, rebased so the earliest span starts
// at 0.
type Merged struct {
	Spans   []Span
	Sources []SourceInfo
	// BaseUnixNs is the wall time of merged t=0 (0 when no source carried
	// a wall-clock anchor).
	BaseUnixNs int64
}

// Merge puts every source on one timeline. A source with a meta epoch is
// placed at that wall-clock epoch; every runner is one process, so all
// its tracers read the same wall clock and the epochs alone align them
// exactly. A source without one merges on its own base from 0 and is
// flagged unaligned.
//
// The merged spans are sorted by placed start time — out-of-order input
// (a wrapped ring buffer read mid-write, concatenated files) is
// normalized here — and rebased so the earliest span starts at zero.
func Merge(sources ...Source) (*Merged, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("obs: nothing to merge: no sources")
	}
	m := &Merged{}
	anyAligned := false
	for _, src := range sources {
		aligned := src.EpochUnixNs != 0
		anyAligned = anyAligned || aligned
		for _, s := range src.Spans {
			if src.Node >= 0 {
				s.Node = src.Node
			}
			s.Start += src.EpochUnixNs
			m.Spans = append(m.Spans, s)
		}
		m.Sources = append(m.Sources, SourceInfo{Name: src.Name, Node: src.Node, Spans: len(src.Spans), Aligned: aligned})
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
	return m, nil
}

// WriteJSONL writes the merged timeline in the standard trace format: a
// meta line anchoring merged t=0 to the wall clock, then the spans. The
// result is consumable by every inctrace mode.
func (m *Merged) WriteJSONL(w io.Writer) error {
	meta := TraceMeta{Version: 1, Node: -1, EpochUnixNs: m.BaseUnixNs, Source: "merged"}
	return WriteSpansJSONL(w, meta, m.Spans)
}
