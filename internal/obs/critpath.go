package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Critical-path attribution for ring allreduce iterations.
//
// The signal is recv wait. In a ring, every node's step k receive is
// gated by its left neighbor's step k send, which is in turn gated by
// that node's own step k−1 receive — delay cascades all the way around.
// The inversion that makes attribution possible: the straggler itself
// waits the LEAST (by the time it asks for data, the data has long been
// queued by its punctual neighbor), while everyone downstream waits for
// the wavefront it launched. So per iteration the gating node is the one
// with the minimum total recv wait, and the iteration's cost of the
// imbalance ("gap") is how much extra the worst-off node waited relative
// to that minimum.

// IterAttribution is the critical-path verdict for one iteration.
type IterAttribution struct {
	Iter int
	// Gating is the node the iteration's critical path runs through
	// (minimum recv wait), or -1 when the iteration is balanced.
	Gating int
	// GatingPhase is where the gating node spent most of its non-recv
	// time that iteration — the activity that made everyone wait
	// (compute for a slow worker, compress for a slow codec, ...).
	GatingPhase Phase
	// Wait is each node's total recv wait this iteration.
	Wait map[int]time.Duration
	// Gap is the worst excess wait over the gating node's — what the
	// iteration would save if the straggler kept pace.
	Gap time.Duration
	// Balanced marks iterations whose gap is under the attribution
	// threshold; their Gating is -1.
	Balanced bool
}

// BlameReport is the per-iteration attribution plus its aggregates: how
// often each node gated the ring, and the recv-wait "blame matrix" —
// for each waiting node, how much excess stall it charged to the ring
// neighbor it receives from.
type BlameReport struct {
	// Nodes is the ring membership in ring order (sorted ids — the
	// fabric assigns ring position by id).
	Nodes []int
	// Iters is the per-iteration attribution, in iteration order.
	Iters []IterAttribution
	// GatingCount[node] is how many attributed (non-balanced)
	// iterations each node gated.
	GatingCount map[int]int
	// Attributed is the number of non-balanced iterations.
	Attributed int
	// Blame[i][j] is the excess recv wait node Nodes[i] accumulated on
	// its inbound link — blamed on Nodes[j], its left neighbor, the only
	// node it ever receives from. Cells off the left-neighbor diagonal
	// are zero; the matrix form keeps the report shape stable if
	// non-ring topologies ever feed it.
	Blame [][]time.Duration
	// MinGap is the balance threshold that was applied.
	MinGap time.Duration
}

// AttributeCriticalPath runs critical-path attribution over a merged
// trace. minGap is the balance threshold: iterations whose max−min recv
// wait falls under it are counted as balanced rather than attributed to
// a node (0 means the 100µs default). Spans with iter < 0 (background
// activity) are ignored.
func AttributeCriticalPath(spans []Span, minGap time.Duration) *BlameReport {
	if minGap <= 0 {
		minGap = 100 * time.Microsecond
	}
	// wait[iter][node] and busy[iter][node][phase] accumulators.
	type nodeIter struct {
		wait time.Duration
		busy [NumPhases]time.Duration
	}
	acc := make(map[int]map[int]*nodeIter)
	nodeSet := make(map[int]bool)
	for _, s := range spans {
		if s.Iter < 0 || s.Phase >= NumPhases {
			continue
		}
		nodeSet[s.Node] = true
		byNode := acc[s.Iter]
		if byNode == nil {
			byNode = make(map[int]*nodeIter)
			acc[s.Iter] = byNode
		}
		ni := byNode[s.Node]
		if ni == nil {
			ni = &nodeIter{}
			byNode[s.Node] = ni
		}
		if s.Phase == PhaseRecv {
			ni.wait += time.Duration(s.Dur)
		} else {
			ni.busy[s.Phase] += time.Duration(s.Dur)
		}
	}

	r := &BlameReport{GatingCount: make(map[int]int), MinGap: minGap}
	for n := range nodeSet {
		r.Nodes = append(r.Nodes, n)
	}
	sort.Ints(r.Nodes)
	pos := make(map[int]int, len(r.Nodes))
	for i, n := range r.Nodes {
		pos[n] = i
	}
	p := len(r.Nodes)
	r.Blame = make([][]time.Duration, p)
	for i := range r.Blame {
		r.Blame[i] = make([]time.Duration, p)
	}

	iters := make([]int, 0, len(acc))
	for it := range acc {
		iters = append(iters, it)
	}
	sort.Ints(iters)

	for _, it := range iters {
		byNode := acc[it]
		ia := IterAttribution{Iter: it, Gating: -1, Wait: make(map[int]time.Duration, len(byNode))}
		first := true
		var minWait, maxWait time.Duration
		for _, n := range r.Nodes {
			ni := byNode[n]
			if ni == nil {
				continue
			}
			ia.Wait[n] = ni.wait
			if first || ni.wait < minWait {
				minWait = ni.wait
				ia.Gating = n
			}
			if first || ni.wait > maxWait {
				maxWait = ni.wait
			}
			first = false
		}
		if first {
			continue
		}
		ia.Gap = maxWait - minWait
		if ia.Gap < minGap || len(ia.Wait) < 2 {
			ia.Balanced = true
			ia.Gating = -1
		} else {
			// The gating node's dominant non-recv phase explains the stall.
			g := byNode[ia.Gating]
			for ph := Phase(0); ph < NumPhases; ph++ {
				if g.busy[ph] > g.busy[ia.GatingPhase] {
					ia.GatingPhase = ph
				}
			}
			r.GatingCount[ia.Gating]++
			r.Attributed++
			// Blame matrix: each node's excess wait lands on its left ring
			// neighbor — the node it was actually blocked receiving from.
			for n, w := range ia.Wait {
				excess := w - minWait
				if excess <= 0 {
					continue
				}
				i := pos[n]
				left := r.Nodes[(i-1+p)%p]
				r.Blame[i][pos[left]] += excess
			}
		}
		r.Iters = append(r.Iters, ia)
	}
	return r
}

// Gating returns the node that gated the most iterations and its share
// of attributed iterations (node -1, share 0 when nothing attributed).
func (r *BlameReport) Gating() (node int, share float64) {
	node = -1
	best := 0
	for _, n := range r.Nodes {
		if c := r.GatingCount[n]; c > best {
			best, node = c, n
		}
	}
	if r.Attributed > 0 && node >= 0 {
		share = float64(best) / float64(r.Attributed)
	}
	return node, share
}

// DominantPhase returns the explanation for node's gating: the phase
// that accounts for the most gap across the iterations it gated (the
// earliest phase in table order on a tie or when it gated none). It is
// the one tally behind the report's verdict.
func (r *BlameReport) DominantPhase(node int) Phase {
	var phaseTot [NumPhases]time.Duration
	for _, ia := range r.Iters {
		if ia.Gating == node {
			phaseTot[ia.GatingPhase] += ia.Gap
		}
	}
	best := Phase(0)
	for ph := Phase(1); ph < NumPhases; ph++ {
		if phaseTot[ph] > phaseTot[best] {
			best = ph
		}
	}
	return best
}

// RenderBlame writes the straggler report: the per-node gating summary,
// the blame matrix, and the per-iteration tail.
func (r *BlameReport) RenderBlame(w io.Writer) {
	balanced := len(r.Iters) - r.Attributed
	fmt.Fprintf(w, "critical-path attribution: %d iterations, %d attributed, %d balanced (gap < %s)\n",
		len(r.Iters), r.Attributed, balanced, r.MinGap)
	if len(r.Nodes) == 0 {
		return
	}

	fmt.Fprintf(w, "\n%-6s %8s %7s %14s\n", "node", "gated", "share", "blamed wait")
	blamedOn := make([]time.Duration, len(r.Nodes))
	for i := range r.Blame {
		for j, d := range r.Blame[i] {
			blamedOn[j] += d
		}
	}
	for i, n := range r.Nodes {
		share := 0.0
		if r.Attributed > 0 {
			share = 100 * float64(r.GatingCount[n]) / float64(r.Attributed)
		}
		fmt.Fprintf(w, "%-6d %8d %6.1f%% %13.3fs\n", n, r.GatingCount[n], share, blamedOn[i].Seconds())
	}

	fmt.Fprintf(w, "\nblame matrix (rows wait on columns, excess recv wait):\n%-8s", "")
	for _, n := range r.Nodes {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("on %d", n))
	}
	fmt.Fprintln(w)
	for i, n := range r.Nodes {
		fmt.Fprintf(w, "node %-3d", n)
		for j := range r.Nodes {
			fmt.Fprintf(w, " %8.3fs", r.Blame[i][j].Seconds())
		}
		fmt.Fprintln(w)
	}

	if node, share := r.Gating(); node >= 0 {
		fmt.Fprintf(w, "\nstraggler: node %d gates %.0f%% of attributed iterations (dominant phase: %s)\n",
			node, 100*share, r.DominantPhase(node))
	} else {
		fmt.Fprintf(w, "\nstraggler: none — ring is balanced\n")
	}
}
