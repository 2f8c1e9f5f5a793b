package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// ParseSnapshot decodes a saved metrics snapshot (the JSON of
// Registry.Snapshot that `inctrain -metrics-out` writes) into a flat map:
// numbers become float64, as do the strings "NaN", "+Inf" and "-Inf" a
// non-finite gauge is saved as, and histograms generic maps, which
// RenderMetrics understands.
func ParseSnapshot(body []byte) (map[string]interface{}, error) {
	var snap map[string]interface{}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("obs: metrics snapshot: %w", err)
	}
	for k, v := range snap {
		if name, ok := v.(string); ok {
			if f, ok := nonFinite[name]; ok {
				snap[k] = f
			}
		}
	}
	return snap, nil
}

// NodeBreakdown is one node's per-phase time totals over a trace.
type NodeBreakdown struct {
	Node    int
	Phase   [NumPhases]time.Duration
	Iters   int // distinct iterations observed (iter ≥ 0 spans)
	MinIter int
	MaxIter int
}

// Total returns the node's summed phase time.
func (n *NodeBreakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range n.Phase {
		t += d
	}
	return t
}

// Comm returns the node's communication time: everything except the
// compute phase (the paper's computation-vs-communication split, with
// checkpoint/replay counted as overhead on the communication side).
func (n *NodeBreakdown) Comm() time.Duration {
	return n.Total() - n.Phase[PhaseCompute]
}

// Breakdown aggregates a trace into per-node phase totals — the data
// behind the paper's Fig. 13/14 time-breakdown bars.
type Breakdown struct {
	Nodes   []NodeBreakdown // sorted by node id
	StartNs int64           // earliest span start in the trace
	EndNs   int64           // latest span end
}

// Aggregate builds the breakdown from raw spans.
func Aggregate(spans []Span) *Breakdown {
	byNode := make(map[int]*NodeBreakdown)
	b := &Breakdown{}
	first := true
	for _, s := range spans {
		nb := byNode[s.Node]
		if nb == nil {
			nb = &NodeBreakdown{Node: s.Node, MinIter: -1, MaxIter: -1}
			byNode[s.Node] = nb
		}
		if s.Phase < NumPhases {
			nb.Phase[s.Phase] += time.Duration(s.Dur)
		}
		if s.Iter >= 0 {
			if nb.MinIter < 0 || s.Iter < nb.MinIter {
				nb.MinIter = s.Iter
			}
			if s.Iter > nb.MaxIter {
				nb.MaxIter = s.Iter
			}
		}
		if first || s.Start < b.StartNs {
			b.StartNs = s.Start
		}
		if first || s.End() > b.EndNs {
			b.EndNs = s.End()
		}
		first = false
	}
	for _, nb := range byNode {
		if nb.MinIter >= 0 {
			nb.Iters = nb.MaxIter - nb.MinIter + 1
		}
		b.Nodes = append(b.Nodes, *nb)
	}
	sort.Slice(b.Nodes, func(i, j int) bool { return b.Nodes[i].Node < b.Nodes[j].Node })
	return b
}

// Wall returns the trace's wall-clock extent.
func (b *Breakdown) Wall() time.Duration {
	return time.Duration(b.EndNs - b.StartNs)
}

// RenderTable writes the per-node time-breakdown table (Fig. 13/14
// style): one row per node with absolute seconds and the share of that
// node's accounted time spent in each phase.
func (b *Breakdown) RenderTable(w io.Writer) {
	fmt.Fprintf(w, "%-5s %6s", "node", "iters")
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(w, " %14s", p.String())
	}
	fmt.Fprintf(w, " %12s %7s\n", "total", "comm%")
	for i := range b.Nodes {
		nb := &b.Nodes[i]
		total := nb.Total()
		fmt.Fprintf(w, "%-5d %6d", nb.Node, nb.Iters)
		for p := Phase(0); p < NumPhases; p++ {
			d := nb.Phase[p]
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(d) / float64(total)
			}
			fmt.Fprintf(w, " %9.3fs %3.0f%%", d.Seconds(), pct)
		}
		commPct := 0.0
		if total > 0 {
			commPct = 100 * float64(nb.Comm()) / float64(total)
		}
		fmt.Fprintf(w, " %11.3fs %6.1f%%\n", total.Seconds(), commPct)
	}
	fmt.Fprintf(w, "trace wall clock: %.3fs\n", b.Wall().Seconds())
}

// timelineChars maps each phase to its timeline glyph.
var timelineChars = [NumPhases]byte{'c', 'z', 's', 'r', '+', 'd'}

// RenderTimeline writes an ASCII step timeline: one row per node, the
// trace's wall-clock extent divided into width buckets, each bucket
// showing the phase that dominated it ('.' = idle):
//
//	c compute   z compress   s send   r recv
//	+ reduce    d decompress
func RenderTimeline(w io.Writer, spans []Span, width int) {
	if width < 10 {
		width = 10
	}
	b := Aggregate(spans)
	if len(b.Nodes) == 0 || b.EndNs <= b.StartNs {
		return
	}
	bucketNs := float64(b.EndNs-b.StartNs) / float64(width)
	// occupancy[node][bucket][phase] = overlapped nanoseconds
	occ := make(map[int][][NumPhases]float64, len(b.Nodes))
	for _, nb := range b.Nodes {
		occ[nb.Node] = make([][NumPhases]float64, width)
	}
	for _, s := range spans {
		row := occ[s.Node]
		if row == nil || s.Phase >= NumPhases || s.Dur <= 0 {
			continue
		}
		lo := float64(s.Start - b.StartNs)
		hi := float64(s.End() - b.StartNs)
		for bi := int(lo / bucketNs); bi < width; bi++ {
			blo, bhi := float64(bi)*bucketNs, float64(bi+1)*bucketNs
			if blo >= hi {
				break
			}
			ov := min(hi, bhi) - max(lo, blo)
			if ov > 0 {
				row[bi][s.Phase] += ov
			}
		}
	}
	fmt.Fprintf(w, "timeline (%.3fs wall, %d buckets of %.1fms; c=compute z=compress s=send r=recv +=reduce d=decompress .=idle)\n",
		b.Wall().Seconds(), width, bucketNs/1e6)
	for _, nb := range b.Nodes {
		row := occ[nb.Node]
		line := make([]byte, width)
		for bi := 0; bi < width; bi++ {
			best, bestV := byte('.'), 0.0
			for p := Phase(0); p < NumPhases; p++ {
				if v := row[bi][p]; v > bestV {
					best, bestV = timelineChars[p], v
				}
			}
			line[bi] = best
		}
		fmt.Fprintf(w, "node %-3d |%s|\n", nb.Node, string(line))
	}
}

// jnum renders an optional JSON number ("-" when absent — omitempty drops
// zero quantiles from empty histograms).
func jnum(v interface{}) string {
	switch n := v.(type) {
	case nil:
		return "-"
	case float64:
		return fmt.Sprintf("%.6f", n)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// RenderMetrics writes a snapshot decoded by ParseSnapshot in sorted name
// order, for CLI display.
func RenderMetrics(w io.Writer, snap map[string]interface{}) {
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		switch v := snap[k].(type) {
		case map[string]interface{}: // a histogram
			fmt.Fprintf(w, "%-40s count=%v sum=%vs p50=%vs p90=%vs p99=%vs max=%vs\n",
				k, v["count"], v["sum_s"], jnum(v["p50_s"]), jnum(v["p90_s"]), jnum(v["p99_s"]), v["max_s"])
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(w, "%-40s %v\n", k, v)
			} else if v == float64(int64(v)) && !strings.Contains(k, "ratio") {
				fmt.Fprintf(w, "%-40s %d\n", k, int64(v))
			} else {
				fmt.Fprintf(w, "%-40s %.4f\n", k, v)
			}
		default:
			fmt.Fprintf(w, "%-40s %v\n", k, v)
		}
	}
}
