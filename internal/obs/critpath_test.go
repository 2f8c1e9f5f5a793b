package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// synthRing emits spans for a p-node ring where `slow` (if ≥0) computes
// `delay` longer than the rest each iteration. Recv waits follow the ring
// cascade: the straggler's data is always ready (minimal wait), everyone
// else stalls by the delay.
func synthRing(p, iters, slow int, delay time.Duration) []Span {
	var spans []Span
	var t int64
	base := 1 * time.Millisecond
	for it := 0; it < iters; it++ {
		for n := 0; n < p; n++ {
			comp := base
			if n == slow {
				comp += delay
			}
			spans = append(spans, Span{Node: n, Iter: it, Phase: PhaseCompute, Start: t, Dur: comp.Nanoseconds()})
			wait := 50 * time.Microsecond // baseline pipeline wait
			if slow >= 0 && n != slow {
				wait += delay
			}
			spans = append(spans, Span{Node: n, Iter: it, Phase: PhaseRecv, Start: t + comp.Nanoseconds(), Dur: wait.Nanoseconds()})
			spans = append(spans, Span{Node: n, Iter: it, Phase: PhaseSend, Start: t, Dur: (200 * time.Microsecond).Nanoseconds()})
		}
		t += (10 * time.Millisecond).Nanoseconds()
	}
	return spans
}

func TestAttributeCriticalPathStraggler(t *testing.T) {
	const p, iters, slow = 4, 20, 2
	r := AttributeCriticalPath(synthRing(p, iters, slow, 5*time.Millisecond), 0)
	if len(r.Nodes) != p || len(r.Iters) != iters {
		t.Fatalf("nodes=%v iters=%d", r.Nodes, len(r.Iters))
	}
	node, share := r.Gating()
	if node != slow {
		t.Fatalf("gating node %d, want %d", node, slow)
	}
	if share < 0.9 {
		t.Fatalf("gating share %.2f, want ≥0.90", share)
	}
	// The straggler's excuse is its compute phase.
	for _, ia := range r.Iters {
		if ia.Gating == slow && ia.GatingPhase != PhaseCompute {
			t.Fatalf("iter %d gating phase %s, want compute", ia.Iter, ia.GatingPhase)
		}
	}
	// Blame lands on each waiter's left neighbor; the straggler itself
	// (minimum wait) charges nothing.
	slowIdx := slow
	for i := range r.Nodes {
		left := (i - 1 + p) % p
		for j := range r.Nodes {
			got := r.Blame[i][j]
			switch {
			case i == slowIdx:
				if got != 0 {
					t.Fatalf("straggler row blames %v at col %d", got, j)
				}
			case j == left:
				if got <= 0 {
					t.Fatalf("node %d should blame its left neighbor %d", r.Nodes[i], r.Nodes[left])
				}
			default:
				if got != 0 {
					t.Fatalf("off-neighbor blame cell [%d][%d] = %v", i, j, got)
				}
			}
		}
	}
}

func TestAttributeCriticalPathBalanced(t *testing.T) {
	r := AttributeCriticalPath(synthRing(4, 10, -1, 0), 100*time.Microsecond)
	if r.Attributed != 0 {
		t.Fatalf("balanced ring attributed %d iterations", r.Attributed)
	}
	if node, _ := r.Gating(); node != -1 {
		t.Fatalf("balanced ring names straggler %d", node)
	}
	for _, ia := range r.Iters {
		if !ia.Balanced || ia.Gating != -1 {
			t.Fatalf("iteration %+v not marked balanced", ia)
		}
	}
}

func TestRenderBlame(t *testing.T) {
	r := AttributeCriticalPath(synthRing(3, 5, 1, 3*time.Millisecond), 0)
	var buf bytes.Buffer
	r.RenderBlame(&buf)
	out := buf.String()
	for _, want := range []string{"blame matrix", "straggler: node 1", "dominant phase: compute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("blame report missing %q:\n%s", want, out)
		}
	}
}

func TestCalibrate(t *testing.T) {
	// Measured: 10ms compute per cell; sim: 12ms → +20% relative error.
	var measured, sim []Span
	for it := 0; it < 4; it++ {
		for n := 0; n < 2; n++ {
			measured = append(measured, Span{Node: n, Iter: it, Phase: PhaseCompute, Dur: (10 * time.Millisecond).Nanoseconds()})
			sim = append(sim, Span{Node: n, Iter: it, Phase: PhaseCompute, Dur: (12 * time.Millisecond).Nanoseconds()})
			sim = append(sim, Span{Node: n, Iter: it, Phase: PhaseSend, Dur: (1 * time.Millisecond).Nanoseconds()})
		}
	}
	c := Calibrate(measured, sim, 0)
	var comp, send *PhaseCal
	for i := range c.Phases {
		switch c.Phases[i].Phase {
		case PhaseCompute:
			comp = &c.Phases[i]
		case PhaseSend:
			send = &c.Phases[i]
		}
	}
	if comp == nil || send == nil {
		t.Fatalf("phases missing: %+v", c.Phases)
	}
	if comp.RelErr < 0.199 || comp.RelErr > 0.201 {
		t.Fatalf("compute rel err %.4f, want 0.20", comp.RelErr)
	}
	if comp.MeasuredCells != 8 || comp.SimCells != 8 {
		t.Fatalf("cells %d/%d, want 8/8", comp.MeasuredCells, comp.SimCells)
	}
	// Send exists only in sim: no relative error claimed.
	if send.RelErr != 0 || send.MeasuredCells != 0 {
		t.Fatalf("sim-only phase: %+v", send)
	}
	var buf bytes.Buffer
	c.Render(&buf)
	if !strings.Contains(buf.String(), "+20.0%") {
		t.Fatalf("render missing rel err:\n%s", buf.String())
	}
}
