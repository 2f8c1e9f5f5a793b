package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Calibration is a per-phase comparison of two traces in the shared span
// schema — one measured (a real run), one simulated (eventsim/netsim/nic
// emitting virtual-time spans via RecordRaw). It answers the co-design
// loop's question: where does the model diverge from the machine?

// PhaseCal is the calibration result for one phase.
type PhaseCal struct {
	Phase Phase
	// MeasuredMean / SimMean are mean seconds of this phase per
	// node-iteration (span durations summed per {node, iter}, averaged
	// over the cells where the phase appears).
	MeasuredMean float64
	SimMean      float64
	// MeasuredCells / SimCells are how many {node, iter} cells carried
	// the phase in each trace.
	MeasuredCells int
	SimCells      int
	// RelErr is (sim − measured) / measured: positive when the simulator
	// is pessimistic, NaN-free (0 when either side has no data).
	RelErr float64
}

// Calibration is the full per-phase table.
type Calibration struct {
	Phases []PhaseCal // only phases present in at least one trace
}

// phaseMeans computes per-phase mean seconds per {node, iter} cell,
// dropping the slowest ceil(trim·n) cells of each phase first. A trim of
// 0 is the plain mean.
func phaseMeans(spans []Span, trim float64) (mean [NumPhases]float64, cells [NumPhases]int) {
	idx := IndexSpans(spans)
	var byPhase [NumPhases][]time.Duration
	for k, d := range idx {
		if k.Iter < 0 || k.Phase >= NumPhases {
			continue
		}
		byPhase[k.Phase] = append(byPhase[k.Phase], d)
	}
	for p := range byPhase {
		ds := byPhase[p]
		cells[p] = len(ds)
		if len(ds) == 0 {
			continue
		}
		if trim > 0 {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			drop := int(math.Ceil(trim * float64(len(ds))))
			if drop >= len(ds) {
				drop = len(ds) - 1
			}
			ds = ds[:len(ds)-drop]
		}
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		mean[p] = total.Seconds() / float64(len(ds))
	}
	return mean, cells
}

// Calibrate diffs a simulated trace against a measured one, phase by
// phase, with the slowest trim-fraction of the *measured* cells of each
// phase dropped before averaging (0 keeps them all). Measured traces on
// a shared machine carry rare giant outlier cells (a GC pause or
// scheduler preemption lands inside one span and inflates it 50×); a
// small trim compares the simulator against the machine's typical
// behavior instead of letting one pause dominate the phase mean. The
// simulated side is deterministic and is never trimmed. Cell counts
// still report the untrimmed population.
func Calibrate(measured, sim []Span, trim float64) *Calibration {
	mMean, mCells := phaseMeans(measured, trim)
	sMean, sCells := phaseMeans(sim, 0)
	c := &Calibration{}
	for p := Phase(0); p < NumPhases; p++ {
		if mCells[p] == 0 && sCells[p] == 0 {
			continue
		}
		pc := PhaseCal{
			Phase:         p,
			MeasuredMean:  mMean[p],
			SimMean:       sMean[p],
			MeasuredCells: mCells[p],
			SimCells:      sCells[p],
		}
		if mMean[p] > 0 && sCells[p] > 0 {
			pc.RelErr = (sMean[p] - mMean[p]) / mMean[p]
		}
		c.Phases = append(c.Phases, pc)
	}
	return c
}

// OneSided labels a phase present in only one of the two traces:
// "m-only" (measured only), "s-only" (sim only), or "" when both (or
// neither) side carries it. One-sided phases have no meaningful RelErr;
// rendering them as a silent zero mean used to hide coverage gaps.
func (pc PhaseCal) OneSided() string {
	switch {
	case pc.MeasuredCells > 0 && pc.SimCells == 0:
		return "m-only"
	case pc.SimCells > 0 && pc.MeasuredCells == 0:
		return "s-only"
	}
	return ""
}

// MaxAbsRelErr returns the largest |RelErr| across the phases both
// traces cover (one-sided phases and phases with a zero measured mean
// carry no meaningful error and are skipped). Zero when no phase is
// comparable — callers gating on drift should also check Comparable.
func (c *Calibration) MaxAbsRelErr() float64 {
	max := 0.0
	for _, pc := range c.Phases {
		if pc.OneSided() != "" || pc.MeasuredMean <= 0 {
			continue
		}
		e := pc.RelErr
		if e < 0 {
			e = -e
		}
		if e > max {
			max = e
		}
	}
	return max
}

// Comparable reports how many phases carry a meaningful RelErr.
func (c *Calibration) Comparable() int {
	n := 0
	for _, pc := range c.Phases {
		if pc.OneSided() == "" && pc.MeasuredMean > 0 {
			n++
		}
	}
	return n
}

// Render writes the per-phase relative-error table. Phases present in
// only one trace are flagged m-only/s-only instead of rendering a
// silent zero mean on the missing side.
func (c *Calibration) Render(w io.Writer) {
	fmt.Fprintf(w, "%-12s %14s %14s %10s %8s %8s\n",
		"phase", "measured/iter", "sim/iter", "rel err", "m cells", "s cells")
	for _, pc := range c.Phases {
		rel := "n/a"
		if side := pc.OneSided(); side != "" {
			rel = side
		} else if pc.MeasuredMean > 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*pc.RelErr)
		}
		fmt.Fprintf(w, "%-12s %13.6fs %13.6fs %10s %8d %8d\n",
			pc.Phase.String(), pc.MeasuredMean, pc.SimMean, rel, pc.MeasuredCells, pc.SimCells)
	}
}
