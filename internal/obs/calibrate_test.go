package obs

import (
	"strings"
	"testing"
	"time"
)

func span(node, iter int, phase Phase, durMs int64) Span {
	return Span{Node: node, Iter: iter, Phase: phase, Start: 0, Dur: durMs * int64(time.Millisecond)}
}

func phaseCal(c *Calibration, p Phase) (PhaseCal, bool) {
	for _, pc := range c.Phases {
		if pc.Phase == p {
			return pc, true
		}
	}
	return PhaseCal{}, false
}

func TestCalibrateBasicRelErr(t *testing.T) {
	measured := []Span{span(0, 0, PhaseSend, 10), span(0, 1, PhaseSend, 10)}
	sim := []Span{span(0, 0, PhaseSend, 12), span(0, 1, PhaseSend, 12)}
	c := Calibrate(measured, sim, 0)
	pc, ok := phaseCal(c, PhaseSend)
	if !ok {
		t.Fatal("send phase missing from calibration")
	}
	if got, want := pc.RelErr, 0.2; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("RelErr = %v, want %v", got, want)
	}
	if pc.MeasuredCells != 2 || pc.SimCells != 2 {
		t.Fatalf("cells = %d/%d, want 2/2", pc.MeasuredCells, pc.SimCells)
	}
	if got := c.MaxAbsRelErr(); got < 0.2-1e-9 || got > 0.2+1e-9 {
		t.Fatalf("MaxAbsRelErr = %v, want 0.2", got)
	}
	if c.Comparable() != 1 {
		t.Fatalf("Comparable = %d, want 1", c.Comparable())
	}
}

func TestCalibrateZeroDurationSpans(t *testing.T) {
	// Zero-duration spans still create a cell (the phase happened, it was
	// just immeasurably fast) but the zero measured mean disables RelErr —
	// the guard mMean > 0 — so the phase must not trip MaxAbsRelErr.
	measured := []Span{span(0, 0, PhaseRecv, 0)}
	sim := []Span{span(0, 0, PhaseRecv, 5)}
	c := Calibrate(measured, sim, 0)
	pc, ok := phaseCal(c, PhaseRecv)
	if !ok {
		t.Fatal("recv phase missing")
	}
	if pc.MeasuredCells != 1 {
		t.Fatalf("MeasuredCells = %d, want 1", pc.MeasuredCells)
	}
	if pc.RelErr != 0 {
		t.Fatalf("RelErr = %v, want 0 (zero measured mean disables it)", pc.RelErr)
	}
	if got := c.MaxAbsRelErr(); got != 0 {
		t.Fatalf("MaxAbsRelErr = %v, want 0", got)
	}
	if c.Comparable() != 0 {
		t.Fatalf("Comparable = %d, want 0", c.Comparable())
	}
}

func TestCalibrateNegativeIterFiltered(t *testing.T) {
	// Iter -1 marks transport-owned spans (codec work on the wire path);
	// they must not contribute calibration cells.
	measured := []Span{
		span(0, -1, PhaseCompress, 50),
		span(0, 0, PhaseSend, 10),
	}
	sim := []Span{span(0, 0, PhaseSend, 10)}
	c := Calibrate(measured, sim, 0)
	if _, ok := phaseCal(c, PhaseCompress); ok {
		t.Fatal("compress phase from iter -1 spans must be filtered")
	}
	pc, _ := phaseCal(c, PhaseSend)
	if pc.MeasuredCells != 1 {
		t.Fatalf("send MeasuredCells = %d, want 1", pc.MeasuredCells)
	}
}

func TestCalibrateOneSidedPhases(t *testing.T) {
	measured := []Span{
		span(0, 0, PhaseSend, 10),
		span(0, 0, PhaseDecompress, 30), // measured-only
	}
	sim := []Span{
		span(0, 0, PhaseSend, 11),
		span(0, 0, PhaseReduce, 4), // sim-only
	}
	c := Calibrate(measured, sim, 0)

	dc, ok := phaseCal(c, PhaseDecompress)
	if !ok || dc.OneSided() != "m-only" {
		t.Fatalf("decompress OneSided = %q, want m-only", dc.OneSided())
	}
	if dc.RelErr != 0 {
		t.Fatalf("m-only RelErr = %v, want 0 (sCells guard)", dc.RelErr)
	}
	rd, ok := phaseCal(c, PhaseReduce)
	if !ok || rd.OneSided() != "s-only" {
		t.Fatalf("reduce OneSided = %q, want s-only", rd.OneSided())
	}
	sd, _ := phaseCal(c, PhaseSend)
	if sd.OneSided() != "" {
		t.Fatalf("send OneSided = %q, want empty", sd.OneSided())
	}

	// One-sided phases must not contribute to the gate value.
	if got := c.MaxAbsRelErr(); got > 0.11 {
		t.Fatalf("MaxAbsRelErr = %v, want ~0.1 (send only)", got)
	}
	if c.Comparable() != 1 {
		t.Fatalf("Comparable = %d, want 1", c.Comparable())
	}

	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "m-only") || !strings.Contains(out, "s-only") {
		t.Fatalf("Render must flag one-sided phases, got:\n%s", out)
	}
}

func TestCalibrateEmptyTraces(t *testing.T) {
	c := Calibrate(nil, nil, 0)
	if len(c.Phases) != 0 {
		t.Fatalf("empty traces produced %d phases", len(c.Phases))
	}
	if c.MaxAbsRelErr() != 0 || c.Comparable() != 0 {
		t.Fatal("empty calibration must gate at zero")
	}
}

func TestPhaseMeansMultipleSpansPerCell(t *testing.T) {
	// Two spans in the same {node, iter, phase} cell sum before averaging.
	spans := []Span{
		span(0, 0, PhaseSend, 10),
		span(0, 0, PhaseSend, 20),
		span(1, 0, PhaseSend, 30),
	}
	mean, cells := phaseMeans(spans, 0)
	if cells[PhaseSend] != 2 {
		t.Fatalf("send cells = %d, want 2", cells[PhaseSend])
	}
	if got, want := mean[PhaseSend], 0.030; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("send mean = %v, want %v", got, want)
	}
}
